package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/cipher"
	"repro/internal/ilp"
)

// fingerprint identifies the host a result came from: CPU model, CPU
// count, GOMAXPROCS and Go version.
func fingerprint() string {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s os=%s/%s",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// snapshot is the process state the windowed metrics are deltas of.
type snapshot struct {
	wall      int64 // nowNS
	user, sys time.Duration
	vcsw      int64
	mallocs   uint64
	numGC     uint32
	pauses    []uint64 // GC stop-the-world pause histogram counts
}

var pauseMetric = []metrics.Sample{{Name: "/sched/pauses/total/gc:seconds"}}

// setupTime runs build and returns the CPU time the calling thread
// spent in it. CPU time leaves out time the hypervisor gives the CPU to
// another guest, which on a shared host can double a set-up's wall
// time; the thread's own clock leaves out goroutines that build starts
// and that run on beside it, such as socket readers. The clock
// (CLOCK_THREAD_CPUTIME_ID) counts nanoseconds, where getrusage rounds
// to microseconds, a few percent of one set-up.
func setupTime(build func() error) (float64, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	err := build()
	return (threadCPU() - start).Seconds(), err
}

func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	// Cannot fail for a valid clock id and a writable timespec.
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

func takeSnapshot() snapshot {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := snapshot{
		wall:    nowNS(),
		user:    time.Duration(ru.Utime.Nano()),
		sys:     time.Duration(ru.Stime.Nano()),
		vcsw:    int64(ru.Nvcsw),
		mallocs: ms.Mallocs,
		numGC:   ms.NumGC,
	}
	metrics.Read(pauseMetric)
	if pauseMetric[0].Value.Kind() == metrics.KindFloat64Histogram {
		s.pauses = append([]uint64(nil), pauseMetric[0].Value.Float64Histogram().Counts...)
	}
	return s
}

// delta is what happened between two snapshots.
type delta struct {
	wall, cpu, sys time.Duration
	vcsw           int64
	mallocs        uint64
	gcs            uint32
	pauseP99       time.Duration // 0 when no GC ran
}

func between(a, b snapshot) delta {
	d := delta{
		wall:    time.Duration(b.wall - a.wall),
		cpu:     b.user + b.sys - a.user - a.sys,
		sys:     b.sys - a.sys,
		vcsw:    b.vcsw - a.vcsw,
		mallocs: b.mallocs - a.mallocs,
		gcs:     b.numGC - a.numGC,
	}
	if len(a.pauses) == len(b.pauses) && len(b.pauses) > 0 {
		metrics.Read(pauseMetric)
		bounds := pauseMetric[0].Value.Float64Histogram().Buckets
		var total uint64
		counts := make([]uint64, len(b.pauses))
		for i := range counts {
			counts[i] = b.pauses[i] - a.pauses[i]
			total += counts[i]
		}
		if total > 0 {
			want := (total*99 + 99) / 100
			var seen uint64
			for i, c := range counts {
				seen += c
				if seen >= want {
					ub := bounds[i+1] // bucket upper bound
					if math.IsInf(ub, 1) {
						ub = bounds[i]
					}
					d.pauseP99 = time.Duration(ub * 1e9)
					break
				}
			}
		}
	}
	return d
}

// calibrate measures MB/s of fn, which processes n bytes per call, as
// the median of five 40 ms batches.
func calibrate(n int, fn func()) float64 {
	var rates []float64
	for b := 0; b < 5; b++ {
		calls := 0
		start := time.Now()
		for time.Since(start) < 40*time.Millisecond {
			for i := 0; i < 16; i++ {
				fn()
			}
			calls += 16
		}
		rates = append(rates, float64(calls*n)/time.Since(start).Seconds()/1e6)
	}
	sort.Float64s(rates)
	return rates[2]
}

var sink byte

// copyMBps is the host's memcpy rate on 8 KiB, the baseline every
// wall-clock figure is also given against.
func copyMBps() float64 {
	src, dst := make([]byte, 8<<10), make([]byte, 8<<10)
	return calibrate(len(src), func() { copy(dst, src); sink += dst[0] })
}

// kernelRates measures the per-fragment AEAD passes the datapath runs
// on 1 KiB fragments (one-time tag key, fused kernel, tag), and the
// ChaCha20 block function alone: the keystream ceiling of both.
func kernelRates() (seal, open, block float64) {
	const frag = 1 << 10
	key := cipher.ExpandKey(0x5EED)
	nonce := [cipher.NonceSize]byte{1, 2, 3}
	pt, ct, out := make([]byte, frag), make([]byte, frag), make([]byte, frag)
	for i := range pt {
		pt[i] = byte(i * 7)
	}
	var tag [cipher.TagSize]byte
	var tk [cipher.KeySize]byte
	sealOne := func() {
		cipher.TagKey(&key, &nonce, 1<<30, &tk)
		mac := cipher.NewMAC(&tk)
		ilp.FusedEncryptCopyMAC(ct, pt, &key, &nonce, 0, &mac)
		mac.Sum(tag[:])
	}
	sealOne()
	seal = calibrate(frag, sealOne)
	open = calibrate(frag, func() {
		cipher.TagKey(&key, &nonce, 1<<30, &tk)
		mac := cipher.NewMAC(&tk)
		ilp.FusedDecryptCopyVerify(out, ct, &key, &nonce, 0, &mac)
		if !mac.Verify(tag[:]) {
			panic("perfbench: calibration tag failed to verify")
		}
	})
	var blk [cipher.BlockSize]byte
	ctr := uint32(0)
	block = calibrate(cipher.BlockSize, func() { cipher.Block(&key, &nonce, ctr, &blk); ctr++; sink += blk[0] })
	return seal, open, block
}
