package sim_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"sdbp/internal/cache"
	"sdbp/internal/cpu"
	"sdbp/internal/dbrb"
	"sdbp/internal/exp"
	"sdbp/internal/hier"
	"sdbp/internal/mem"
	"sdbp/internal/probe"
	"sdbp/internal/sim"
	"sdbp/internal/workloads"
)

// refLLC is small enough that the reference streams fill it, so the
// policies make victim and dead-block decisions within a few chunks.
var refLLC = cache.Config{Name: "LLC", SizeBytes: 128 << 10, Ways: 16}

// refResult is what the per-access reference reports, in the terms
// RunSingle's result is checked in.
type refResult struct {
	ipc           float64
	instr, cycles uint64
	l1, l2, llc   cache.Stats
	stream        []mem.Access
	intervals     []probe.Interval
}

// refRun is the per-access reference for sim.RunSingle: the scalar
// generator, hier.Core.Access and cpu.Record one access at a time, a
// captured stream rebuilt from the levels Access reports and the
// reference's own instruction-gap counter, and an interval snapshot
// checked after every access. It shares no chunking, goroutine,
// record-decoding or interval-cutting code with the drive loop;
// every > 0 turns interval telemetry on.
func refRun(w workloads.Workload, pol cache.Policy, scale float64, capture bool, every uint64) refResult {
	llc := cache.New(refLLC, pol)
	core := hier.NewCore(hier.DefaultConfig(), llc)
	timing := cpu.New(cpu.DefaultConfig())
	var r refResult
	acc, _ := pol.(interface{ Accuracy() dbrb.Accuracy })
	var prevInstr, prevCycles uint64
	var prevStats cache.Stats
	var prevAcc dbrb.Accuracy
	snapshot := func() {
		instr, cycles, st := timing.Instructions(), uint64(timing.Cycles()), llc.Stats()
		var a dbrb.Accuracy
		if acc != nil {
			a = acc.Accuracy()
		}
		iv := probe.Interval{
			Index:           len(r.intervals),
			Instructions:    instr,
			DInstructions:   instr - prevInstr,
			DCycles:         cycles - prevCycles,
			DAccesses:       st.Accesses - prevStats.Accesses,
			DHits:           st.Hits - prevStats.Hits,
			DMisses:         st.Misses - prevStats.Misses,
			DBypasses:       st.Bypasses - prevStats.Bypasses,
			DEvictions:      st.Evictions - prevStats.Evictions,
			DPredictions:    a.Predictions - prevAcc.Predictions,
			DPositives:      a.Positives - prevAcc.Positives,
			DFalsePositives: a.FalsePositives - prevAcc.FalsePositives,
		}
		iv.ComputeRates()
		r.intervals = append(r.intervals, iv)
		prevInstr, prevCycles, prevStats, prevAcc = instr, cycles, st, a
	}

	next := every
	var sinceLLC uint64 // instructions since the previous LLC access
	gen := w.Generator(scale)
	var buf [256]mem.Access
	for k := gen.NextBatch(buf[:]); k > 0; k = gen.NextBatch(buf[:]) {
		for _, a := range buf[:k] {
			sinceLLC += uint64(a.Gap) + 1
			level := core.Access(a)
			if level == hier.LevelLLC || level == hier.LevelMemory {
				// The LLC received a with its gap counting every instruction
				// before it since the previous LLC access.
				if capture {
					llcA := a
					llcA.Gap = uint32(min(sinceLLC-1, 1<<32-1))
					r.stream = append(r.stream, llcA)
				}
				sinceLLC = 0
			}
			timing.Record(a.Gap, level.Latency(), a.DependentLoad)
			if every == 0 {
				continue
			}
			if instr := timing.Instructions(); instr >= next {
				snapshot()
				// One access can cross several boundaries; the next one then
				// re-anchors past the current count.
				if next += every; next <= instr {
					next = instr + every
				}
			}
		}
	}
	if every > 0 && timing.Instructions() > prevInstr {
		snapshot()
	}
	r.ipc, r.instr, r.cycles = timing.IPC(), timing.Instructions(), uint64(timing.Cycles())
	r.l1, r.l2, r.llc = core.L1.Stats(), core.L2.Stats(), llc.Stats()
	return r
}

// streamLen returns the workload's stream length at scale 1.
func streamLen(w workloads.Workload) int {
	gen := w.Generator(1)
	buf := make([]mem.Access, 4096)
	n := 0
	for k := gen.NextBatch(buf); k > 0; k = gen.NextBatch(buf) {
		n += k
	}
	return n
}

// TestRunSingleMatchesPerAccessReference checks RunSingle's chunked
// producer/consumer loop bit for bit against refRun on streams whose
// lengths sit on and around chunk edges, for a recency baseline and a
// dead-block registry policy, with stream capture and interval
// telemetry on and off, and with one and two Ps. Interval 1 makes
// every access a boundary (every record its own cut); 997 cuts chunks
// at irregular points. The longest stream is the one where the LLC
// also hits, once the L2 starts evicting.
func TestRunSingleMatchesPerAccessReference(t *testing.T) {
	w, err := workloads.ByName("403.gcc")
	if err != nil {
		t.Fatal(err)
	}
	full := streamLen(w)
	c := sim.ChunkSize
	for _, polName := range []string{"LRU", "Sampler"} {
		pol, err := exp.ResolvePolicy(polName)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, c - 1, c, c + 1, 3*c + 17, 20*c + 1} {
			// The workload's stream at scale s is int(full*s) accesses long.
			scale := (float64(n) + 0.5) / float64(full)
			t.Run(fmt.Sprintf("%s/n=%d", polName, n), func(t *testing.T) {
				for _, capture := range []bool{false, true} {
					for _, every := range []uint64{0, 1, 997} {
						want := refRun(w, pol.Make(1), scale, capture, every)
						if want.l1.Accesses != uint64(n) {
							t.Fatalf("reference stream is %d accesses long, want %d", want.l1.Accesses, n)
						}
						for _, procs := range []int{1, 2} {
							opts := sim.SingleOptions{Scale: scale, LLC: refLLC, CaptureStream: capture}
							if every > 0 {
								opts.Probe = &probe.Config{Interval: every}
							}
							prev := runtime.GOMAXPROCS(procs)
							got := sim.RunSingle(w, pol.Make(1), opts)
							runtime.GOMAXPROCS(prev)
							checkAgainstRef(t, fmt.Sprintf("capture=%v interval=%d procs=%d", capture, every, procs), got, want)
						}
					}
				}
			})
		}
	}
}

func checkAgainstRef(t *testing.T, where string, got sim.SingleResult, want refResult) {
	t.Helper()
	if got.IPC != want.ipc || got.Instructions != want.instr || got.Cycles != want.cycles {
		t.Errorf("%s: IPC/instructions/cycles %v/%d/%d, reference %v/%d/%d",
			where, got.IPC, got.Instructions, got.Cycles, want.ipc, want.instr, want.cycles)
	}
	if got.L1 != want.l1 || got.L2 != want.l2 || got.LLC != want.llc {
		t.Errorf("%s: cache stats L1 %+v L2 %+v LLC %+v, reference L1 %+v L2 %+v LLC %+v",
			where, got.L1, got.L2, got.LLC, want.l1, want.l2, want.llc)
	}
	if len(got.Stream) != len(want.stream) || len(want.stream) > 0 && !reflect.DeepEqual(got.Stream, want.stream) {
		t.Errorf("%s: captured %d LLC records, reference %d, or their contents differ", where, len(got.Stream), len(want.stream))
	}
	var ivs []probe.Interval
	if got.Probe != nil {
		ivs = got.Probe.Intervals
	}
	if len(ivs) != len(want.intervals) {
		t.Errorf("%s: %d intervals, reference %d", where, len(ivs), len(want.intervals))
		return
	}
	for i := range ivs {
		if ivs[i] != want.intervals[i] {
			t.Errorf("%s: interval %d is %+v, reference %+v", where, i, ivs[i], want.intervals[i])
			return
		}
	}
}
