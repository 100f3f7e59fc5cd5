package exp

import "testing"

// FuzzParseSpec pins the spec and expression parsers against panics on
// arbitrary input, and checks the round-trip property on anything they
// accept: parse → render → parse must be a fixed point.
func FuzzParseSpec(f *testing.F) {
	f.Add("policy=Sampler;workloads=subset")
	f.Add("policy=dbrb(base=random(seed=9),pred=sampler(sets=64));mixes=all;cores=4;llc=llc(kb=512,ways=8);scale=0.1")
	f.Add("policy==;;=")
	f.Add("workloads=,,,")
	f.Add("policy=lru;scale=1e309")
	f.Add("(((")
	f.Fuzz(func(t *testing.T, s string) {
		if spec, err := ParseSpec(s); err == nil {
			text := spec.String()
			again, err := ParseSpec(text)
			if err != nil {
				t.Fatalf("rendered spec %q does not re-parse: %v", text, err)
			}
			if again.String() != text {
				t.Fatalf("spec render not a fixed point: %q -> %q", text, again.String())
			}
		}
		if e, err := ParseExpr(s); err == nil {
			canon := e.String()
			again, err := ParseExpr(canon)
			if err != nil {
				t.Fatalf("canonical expr %q does not re-parse: %v", canon, err)
			}
			if again.String() != canon {
				t.Fatalf("expr render not a fixed point: %q -> %q", canon, again.String())
			}
		}
	})
}

// FuzzParsePolicyExpr pins the full resolver — parse plus every
// builder's knob validation — against panics. The seed corpus walks
// the policy zoo's knob space: table counts, signature and PSEL widths,
// training modes, nested duel sides. Anything the resolver accepts must
// have a canonical rendering that resolves again, to itself. The seeds
// end with reordered and default-written spellings of presets.
func FuzzParsePolicyExpr(f *testing.F) {
	f.Add("ship")
	f.Add("ship(sigbits=14,max=7,init=0,samples=64,train=sampled)")
	f.Add("ship(train=off,init=7)")
	f.Add("ship(sigbits=99)")
	f.Add("ship(train=sometimes)")
	f.Add("dbrb(base=lru,pred=skewed(sets=32,assoc=12,tables=3,entries=4096,tags=8,threshold=8))")
	f.Add("dbrb(base=lru,pred=skewed(tags=16))")
	f.Add("dbrb(base=lru,pred=skewed(entries=3))")
	f.Add("dbrb(base=srrip,pred=never)")
	f.Add("dbrb(base=lru,pred=reuse(tables=3,entries=4096,threshold=8))")
	f.Add("dbrb(base=lru,pred=reuse(threshold=0))")
	f.Add("duel(a=lru,b=dbrb(base=lru,pred=reuse),leaders=32,psel=10)")
	f.Add("duel(force=a)")
	f.Add("duel(force=maybe)")
	f.Add("duel(psel=0)")
	f.Add("duel(a=duel(a=lru,b=nru),b=ship)")
	f.Add("Improved DBP")
	f.Add("dbrb(pred=sampler,base=lru)")
	f.Add("dbrb(base=lru,pred=sampler(sets=32,threshold=8))")
	f.Add("dbrb(pred=sampler(sets=064,sampling=true))")
	f.Add("random(seed=1)")
	f.Add("duel(force=none,psel=10,b=dbrb(pred=reuse),a=lru)")
	f.Add("ship(train=all,samples=64,sigbits=14)")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ResolvePolicy(s)
		if err != nil {
			return
		}
		again, err := ResolvePolicy(p.Expr)
		if err != nil {
			t.Fatalf("accepted %q but canonical expr %q does not resolve: %v", s, p.Expr, err)
		}
		if again.Expr != p.Expr {
			t.Fatalf("canonical expr not a fixed point: %q -> %q", p.Expr, again.Expr)
		}
		// Construction is deliberately not fuzzed: knobs are validated at
		// resolve time, and a valid-but-enormous table size would make the
		// fuzzer report an out-of-memory crash rather than a real bug.
	})
}
