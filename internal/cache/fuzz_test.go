package cache_test

// Native Go fuzz target for the cache model: an arbitrary byte string
// decodes into an access stream that must never panic the cache under
// either the plain LRU baseline or the paper's full sampling
// dead-block policy stack, and the accounting invariants of
// property_test.go must hold afterwards. Run the full fuzzer with
//
//	go test ./internal/cache -run '^$' -fuzz FuzzCacheAccess -fuzztime 30s

import (
	"testing"

	"sdbp/internal/cache"
	"sdbp/internal/dbrb"
	"sdbp/internal/mem"
	"sdbp/internal/policy"
	"sdbp/internal/predictor"
)

// decodeStream turns fuzz bytes into accesses: 5 bytes per access
// (4 address bytes folded over a footprint a few times the cache, one
// flag/PC byte whose top bit is unused). The decoder is total — every
// input is a valid stream.
func decodeStream(data []byte) []mem.Access {
	const rec = 5
	out := make([]mem.Access, 0, len(data)/rec)
	for i := 0; i+rec <= len(data); i += rec {
		addr := uint64(data[i]) | uint64(data[i+1])<<8 | uint64(data[i+2])<<16 | uint64(data[i+3])<<24
		fl := data[i+4]
		out = append(out, mem.Access{
			PC:    0x400000 + uint64(fl&0x3f)*4,
			Addr:  addr,
			Write: fl&0x40 != 0,
			Gap:   uint32(fl & 7),
		})
	}
	return out
}

func FuzzCacheAccess(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0})
	// A seed with hits, conflict evictions and writes.
	var seed []byte
	for i := 0; i < 64; i++ {
		seed = append(seed, byte(i*64), byte(i%4), 0, 0, byte(i))
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		stream := decodeStream(data)
		// Small geometries reach conflict evictions with few accesses.
		cfg := cache.Config{Name: "fuzz", SizeBytes: 8 << 10, Ways: 4} // 32 sets
		pols := []cache.Policy{
			policy.NewLRU(),
			dbrb.New(policy.NewLRU(), predictor.NewSampler(predictor.SamplerConfig{
				UseSampler: true, SamplerSets: 8, SamplerAssoc: 4,
				Tables: 3, TableEntries: 64, Threshold: 8,
			})),
		}
		for _, p := range pols {
			c := cache.New(cfg, p)
			for _, a := range stream {
				res := c.Access(a)
				if res.Hit && (res.Evicted || res.Bypassed) {
					t.Fatalf("%s: contradictory result %+v", p.Name(), res)
				}
				if res.EvictedDirty && !res.Evicted {
					t.Fatalf("%s: dirty eviction without eviction %+v", p.Name(), res)
				}
			}
			c.Finish()
			checkStatsInvariants(t, c)
			checkEfficiencyInvariants(t, c)
		}
	})
}
