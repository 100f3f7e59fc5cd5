package predictor

import (
	"testing"
	"testing/quick"

	"sdbp/internal/mem"
	"sdbp/internal/power"
)

const (
	llcSets = 2048
	llcWays = 16
)

func newDefaultSampler() *Sampler {
	s := NewSampler(DefaultSamplerConfig())
	s.Reset(llcSets, llcWays)
	return s
}

// access builds an access whose block maps to the given LLC set with a
// distinguishing tag.
func accessTo(set uint32, tag uint64, pc uint64) mem.Access {
	return mem.Access{
		PC:   pc,
		Addr: (tag<<uint(mem.Log2(llcSets)) | uint64(set)) << mem.BlockBits,
	}
}

func TestSamplerLearnsStreamPCDead(t *testing.T) {
	s := newDefaultSampler()
	const streamPC = 0x1234560
	// A stream of single-touch blocks through sampled set 0: each tag
	// is inserted once and eventually evicted, training the stream PC
	// toward dead.
	for i := uint64(0); i < 100; i++ {
		s.OnAccess(0, accessTo(0, i, streamPC))
	}
	if !s.PredictArriving(0, mem.Access{PC: streamPC}) {
		t.Errorf("stream PC not predicted dead (confidence %d of %d)",
			s.ConfidenceOf(streamPC), s.Threshold())
	}
}

func TestSamplerKeepsRetouchedPCLive(t *testing.T) {
	s := newDefaultSampler()
	const hotPC = 0x5550
	// A small set of tags re-touched continuously at one site: every
	// sampler hit trains the stored signature live.
	for round := 0; round < 200; round++ {
		for tag := uint64(0); tag < 4; tag++ {
			s.OnAccess(0, accessTo(0, tag, hotPC))
		}
	}
	if s.PredictArriving(0, mem.Access{PC: hotPC}) {
		t.Errorf("re-touched PC predicted dead (confidence %d)", s.ConfidenceOf(hotPC))
	}
}

func TestSamplerLastTouchSiteLearnsDead(t *testing.T) {
	s := newDefaultSampler()
	const fillPC, usePC, finalPC = 0x100, 0x200, 0x300
	// Generational lives: fill, use, final — then enough churn to evict
	// the tag from the sampler so the final signature trains dead.
	churnTag := uint64(1000)
	for gen := 0; gen < 60; gen++ {
		tag := uint64(gen)
		s.OnAccess(0, accessTo(0, tag, fillPC))
		s.OnAccess(0, accessTo(0, tag, usePC))
		s.OnAccess(0, accessTo(0, tag, finalPC))
		for i := 0; i < 13; i++ { // exceed the 12-way sampler set
			s.OnAccess(0, accessTo(0, churnTag, 0x999))
			churnTag++
		}
	}
	if !s.PredictArriving(0, mem.Access{PC: finalPC}) {
		t.Errorf("final-touch PC not dead (confidence %d)", s.ConfidenceOf(finalPC))
	}
	if s.PredictArriving(0, mem.Access{PC: fillPC}) {
		t.Errorf("fill PC predicted dead (confidence %d)", s.ConfidenceOf(fillPC))
	}
	if s.PredictArriving(0, mem.Access{PC: usePC}) {
		t.Errorf("use PC predicted dead (confidence %d)", s.ConfidenceOf(usePC))
	}
}

func TestSamplerIgnoresUnsampledSets(t *testing.T) {
	s := newDefaultSampler()
	const pc = 0x777
	// Set 1 is not sampled (interval 64): no training happens there.
	for i := uint64(0); i < 1000; i++ {
		s.OnAccess(1, accessTo(1, i, pc))
	}
	if got := s.UpdateFraction(); got != 0 {
		t.Errorf("unsampled set updated the predictor (fraction %f)", got)
	}
	if s.ConfidenceOf(pc) != 0 {
		t.Errorf("unsampled traffic trained the tables")
	}
}

func TestSamplerUpdateFraction(t *testing.T) {
	s := newDefaultSampler()
	// Uniform traffic over all sets: the update fraction approaches
	// 32/2048 = 1/64 (the paper's 1.6%).
	for i := 0; i < 1<<16; i++ {
		set := uint32(i) % llcSets
		s.OnAccess(set, accessTo(set, uint64(i), 0x10))
	}
	got := s.UpdateFraction()
	if got < 0.014 || got > 0.018 {
		t.Errorf("update fraction = %.4f, want ~1/64", got)
	}
}

func TestSamplerCountersSaturate(t *testing.T) {
	s := newDefaultSampler()
	const pc = 0xABC
	sig := pcSignature(pc)
	for i := 0; i < 100; i++ {
		s.train(sig, true)
	}
	if c := s.confidence(sig); c != 9 {
		t.Errorf("saturated confidence = %d, want 9", c)
	}
	for i := 0; i < 100; i++ {
		s.train(sig, false)
	}
	if c := s.confidence(sig); c != 0 {
		t.Errorf("decayed confidence = %d, want 0", c)
	}
}

func TestSamplerSkewedTablesUseDistinctIndices(t *testing.T) {
	s := newDefaultSampler()
	distinct := 0
	for sig := uint32(0); sig < 1000; sig++ {
		i0 := s.tableIndex(0, sig)
		i1 := s.tableIndex(1, sig)
		i2 := s.tableIndex(2, sig)
		if i0 != i1 || i1 != i2 {
			distinct++
		}
	}
	if distinct < 990 {
		t.Errorf("only %d of 1000 signatures got distinct skewed indices", distinct)
	}
}

func TestSamplerNoSamplerVariantTrainsFromLLC(t *testing.T) {
	cfg := SamplerConfig{UseSampler: false, Tables: 1, TableEntries: 16384, Threshold: 3}
	s := NewSampler(cfg)
	s.Reset(llcSets, llcWays)
	const pc = 0x42
	// Fill and evict blocks at one site repeatedly: dead training.
	for i := 0; i < 50; i++ {
		s.OnFill(3, 0, mem.Access{PC: pc})
		s.OnEvict(3, 0)
	}
	if !s.PredictArriving(3, mem.Access{PC: pc}) {
		t.Error("no-sampler variant did not learn from LLC evictions")
	}
	// Hits train live again.
	for i := 0; i < 50; i++ {
		s.OnFill(3, 0, mem.Access{PC: pc})
		s.OnHit(3, 0, mem.Access{PC: pc})
	}
	if s.PredictArriving(3, mem.Access{PC: pc}) {
		t.Error("no-sampler variant did not unlearn on hits")
	}
}

func TestSamplerLRUWithinSamplerSet(t *testing.T) {
	s := newDefaultSampler()
	assoc := s.cfg.SamplerAssoc
	// Fill the sampler set with assoc tags, re-touch the first, then
	// insert one more: the evicted tag must not be the re-touched one.
	for i := 0; i < assoc; i++ {
		s.OnAccess(0, accessTo(0, uint64(i), 0x10))
	}
	s.OnAccess(0, accessTo(0, 0, 0x20)) // tag 0 to sampler MRU
	s.OnAccess(0, accessTo(0, uint64(assoc), 0x10))
	// Tag 0 must still be present: a re-touch now is a sampler hit,
	// which trains its stored signature (0x20) live — observable via
	// the train hook.
	trained := false
	s.TrainHook = func(sig uint32, dead bool) {
		if sig == pcSignature(0x20) && !dead {
			trained = true
		}
	}
	s.OnAccess(0, accessTo(0, 0, 0x30))
	if !trained {
		t.Error("re-touched tag was evicted from the sampler despite LRU")
	}
}

func TestSamplerConfigValidation(t *testing.T) {
	bad := []SamplerConfig{
		{UseSampler: true, SamplerSets: 0, SamplerAssoc: 12, Tables: 3, TableEntries: 4096, Threshold: 8},
		{UseSampler: true, SamplerSets: 31, SamplerAssoc: 12, Tables: 3, TableEntries: 4096, Threshold: 8},
		{UseSampler: false, Tables: 0, TableEntries: 4096, Threshold: 8},
		{UseSampler: false, Tables: 1, TableEntries: 1000, Threshold: 3},
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSampler(%+v) accepted invalid config", cfg)
				}
			}()
			NewSampler(cfg)
		}()
	}
}

func TestSamplerStorageMatchesPaper(t *testing.T) {
	s := newDefaultSampler()
	st := s.Storage()
	total := power.TotalKB(st)
	// Paper Table I quotes 13.75KB, but its sampler line (6.75KB) does
	// not follow from its own stated fields: 32 sets x 12 entries x
	// (15+15+1+1+4) bits = 1.6875KB. We report the stated-field
	// arithmetic: 3KB tables + 1.6875KB sampler + 4KB dead bits.
	if total != 8.6875 {
		t.Errorf("sampler storage = %.4fKB, want 8.6875KB", total)
	}
	// Either way the paper's headline holds: under 1% of a 2MB LLC.
	if total >= 0.01*2048 {
		t.Errorf("sampler storage %.2fKB is not under 1%% of the LLC", total)
	}
}

func TestSamplerPredictionIsPureFunctionOfPC(t *testing.T) {
	s := newDefaultSampler()
	f := func(pc uint64, set uint16) bool {
		a := mem.Access{PC: pc}
		return s.PredictArriving(uint32(set)%llcSets, a) == s.predict(pcSignature(pc))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSamplerResetClearsState(t *testing.T) {
	s := newDefaultSampler()
	for i := uint64(0); i < 100; i++ {
		s.OnAccess(0, accessTo(0, i, 0x66))
	}
	if s.ConfidenceOf(0x66) == 0 {
		t.Fatal("training did not happen")
	}
	s.Reset(llcSets, llcWays)
	if s.ConfidenceOf(0x66) != 0 {
		t.Error("Reset did not clear tables")
	}
	if s.UpdateFraction() != 0 {
		t.Error("Reset did not clear counters")
	}
}
