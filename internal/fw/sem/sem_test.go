package sem

import (
	"math/big"
	"math/rand"
	"testing"

	"barbican/internal/fw"
	"barbican/internal/packet"
	"barbican/internal/policy"
)

func mustParse(t *testing.T, text string) *fw.RuleSet {
	t.Helper()
	rs, err := policy.Parse(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return rs
}

func pfx(s string) packet.Prefix { return packet.MustPrefix(s) }

// genSummary draws a boundary-biased probe packet from the same narrow
// pools Generate uses, so probes land on rule edges.
func genSummary(r *rand.Rand) (packet.Summary, fw.Direction) {
	addr := func() packet.IP {
		if r.Intn(8) == 0 {
			return packet.IPFromUint32(r.Uint32())
		}
		return packet.IPFromUint32(uint32(10)<<24 | uint32(r.Intn(3))<<16 | uint32(r.Intn(4))<<8 | uint32(r.Intn(8)))
	}
	protos := []packet.Protocol{packet.ProtoTCP, packet.ProtoUDP, packet.ProtoICMP, packet.ProtoVPGEncap}
	s := packet.Summary{
		Proto: protos[r.Intn(len(protos))],
		Src:   addr(), Dst: addr(),
		Sealed: r.Intn(4) == 0,
		IPLen:  40,
	}
	if !s.Sealed && (s.Proto == packet.ProtoTCP || s.Proto == packet.ProtoUDP) && r.Intn(8) > 0 {
		s.HasPorts = true
		s.SrcPort = uint16(r.Intn(180))
		s.DstPort = uint16(r.Intn(180))
	}
	dir := fw.In
	if r.Intn(2) == 0 {
		dir = fw.Out
	}
	return s, dir
}

// TestDiffSelfEquivalent: a rule set is strictly equivalent to itself,
// and the by-class packet counts always partition the whole universe.
func TestDiffSelfEquivalent(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		rs := Generate(r, GenOptions{Rules: 16})
		res, err := Diff(rs, rs, DiffOptions{StrictIndex: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Equivalent || res.ChangedRegions != 0 || res.ChangedPackets.Sign() != 0 ||
			res.RedecidedPackets.Sign() != 0 || len(res.Witnesses) != 0 {
			t.Fatalf("seed %d: self-diff not clean: %+v", seed, res)
		}
		checkConservation(t, res)
	}
}

func checkConservation(t *testing.T, res *DiffResult) {
	t.Helper()
	sum := new(big.Int)
	for _, c := range res.ByClass {
		sum.Add(sum, c)
	}
	if sum.Cmp(res.TotalPackets) != 0 {
		t.Fatalf("by-class counts sum to %v, universe is %v", sum, res.TotalPackets)
	}
}

// TestDiffSymmetry: reversing the comparison swaps the two changed
// classes and preserves every count.
func TestDiffSymmetry(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		a := Generate(r, GenOptions{Rules: 14})
		b := Generate(r, GenOptions{Rules: 14})
		ab, err := Diff(a, b, DiffOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ba, err := Diff(b, a, DiffOptions{})
		if err != nil {
			t.Fatal(err)
		}
		checkConservation(t, ab)
		checkConservation(t, ba)
		if ab.ChangedPackets.Cmp(ba.ChangedPackets) != 0 ||
			ab.ChangedRegions != ba.ChangedRegions ||
			ab.ByClass[RegionAllowToDeny].Cmp(ba.ByClass[RegionDenyToAllow]) != 0 ||
			ab.ByClass[RegionDenyToAllow].Cmp(ba.ByClass[RegionAllowToDeny]) != 0 ||
			ab.ByClass[RegionRedecided].Cmp(ba.ByClass[RegionRedecided]) != 0 {
			t.Fatalf("seed %d: diff not symmetric:\na->b %+v\nb->a %+v", seed, ab, ba)
		}
	}
}

// TestDiffWitnessReplay: every witness the engine emits must replay
// through the real evaluators with exactly the claimed verdicts, and
// probe packets may only disagree across sets when the diff says the
// sets are inequivalent.
func TestDiffWitnessReplay(t *testing.T) {
	probes := rand.New(rand.NewSource(99))
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		a := Generate(r, GenOptions{Rules: 12})
		b := Generate(r, GenOptions{Rules: 12})
		res, err := Diff(a, b, DiffOptions{StrictIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range res.Witnesses {
			va := a.Eval(w.Packet, w.Dir)
			vb := b.Eval(w.Packet, w.Dir)
			if va.Action != w.From.Action || va.Index != w.From.Index {
				t.Fatalf("seed %d: witness %v: set A evaluates to %v/%d, claimed %v",
					seed, w, va.Action, va.Index, w.From)
			}
			if vb.Action != w.To.Action || vb.Index != w.To.Index {
				t.Fatalf("seed %d: witness %v: set B evaluates to %v/%d, claimed %v",
					seed, w, vb.Action, vb.Index, w.To)
			}
			if classify(w.From, w.To) != w.Class {
				t.Fatalf("seed %d: witness class %v inconsistent with verdicts %v -> %v",
					seed, w.Class, w.From, w.To)
			}
		}
		for p := 0; p < 400; p++ {
			s, dir := genSummary(probes)
			va, vb := a.Eval(s, dir), b.Eval(s, dir)
			if va.Action != vb.Action && res.ChangedPackets.Sign() == 0 {
				t.Fatalf("seed %d: diff claims action-equivalent, probe %v %v differs: %v vs %v",
					seed, dir, s, va.Action, vb.Action)
			}
			if (va.Action != vb.Action || va.Index != vb.Index) && res.Equivalent {
				t.Fatalf("seed %d: diff claims strictly equivalent, probe %v %v differs", seed, dir, s)
			}
		}
	}
}

// TestDiffHandCounts pins the exact packet counts on deltas small
// enough to compute by hand.
func TestDiffHandCounts(t *testing.T) {
	empty := fw.MustRuleSet(fw.Deny)

	// One ported allow rule: tcp, any src, one dst address, one dst
	// port. Changed packets = 2^32 srcs x 65536 src ports = 2^48.
	one := fw.MustRuleSet(fw.Deny, fw.Rule{
		Name: "web", Action: fw.Allow, Direction: fw.In,
		Proto: packet.ProtoTCP, Dst: pfx("10.0.0.1/32"), DstPorts: fw.Port(80),
	})
	res, err := Diff(empty, one, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Lsh(big.NewInt(1), 48)
	if res.ByClass[RegionDenyToAllow].Cmp(want) != 0 || res.ByClass[RegionAllowToDeny].Sign() != 0 {
		t.Fatalf("deny-to-allow = %v, want 2^48 (%v); allow-to-deny = %v",
			res.ByClass[RegionDenyToAllow], want, res.ByClass[RegionAllowToDeny])
	}
	if res.Equivalent || len(res.Witnesses) == 0 {
		t.Fatalf("one-rule delta reported equivalent or witness-free: %+v", res)
	}
	checkConservation(t, res)

	// One VPG rule over /8 prefixes matches sealed-in and clear-out in
	// both the ported and portless planes:
	//   2 sides x 256 protos x 2^24 x 2^24 addrs x (1 + 2^32 ports).
	vpg := fw.MustRuleSet(fw.Deny, fw.Rule{
		Name: "grp", Action: fw.Allow, Direction: fw.Both,
		Src: pfx("10.0.0.0/8"), Dst: pfx("10.0.0.0/8"), VPG: "grp",
	})
	res, err = Diff(empty, vpg, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	side := new(big.Int).Lsh(big.NewInt(256), 48) // 256 x 2^24 x 2^24
	ports := new(big.Int).Add(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), 32))
	want = new(big.Int).Mul(side, ports)
	want.Mul(want, big.NewInt(2))
	if res.ByClass[RegionDenyToAllow].Cmp(want) != 0 {
		t.Fatalf("vpg deny-to-allow = %v, want %v", res.ByClass[RegionDenyToAllow], want)
	}
	checkConservation(t, res)
}

// TestDiffStrictIndex: reordering rules that never disagree on action
// is equivalent under default options but not under StrictIndex.
func TestDiffStrictIndex(t *testing.T) {
	tcp := fw.Rule{Name: "tcp", Action: fw.Allow, Direction: fw.Both, Proto: packet.ProtoTCP}
	all := fw.Rule{Name: "all", Action: fw.Allow, Direction: fw.Both}
	a := fw.MustRuleSet(fw.Deny, tcp, all)
	b := fw.MustRuleSet(fw.Deny, all, tcp)

	res, err := Diff(a, b, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent || res.ChangedPackets.Sign() != 0 || res.RedecidedPackets.Sign() == 0 {
		t.Fatalf("reorder: want action-equivalent with redecided packets, got %+v", res)
	}
	strict, err := Diff(a, b, DiffOptions{StrictIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if strict.Equivalent {
		t.Fatal("reorder reported equivalent under StrictIndex")
	}
	if len(strict.Witnesses) == 0 || strict.Witnesses[0].Class != RegionRedecided {
		t.Fatalf("want a redecided witness, got %v", strict.Witnesses)
	}
}

// TestVerifyCompiled proves compiled == walk on the canned policies,
// the paper's depth shape, and a generated corpus.
func TestVerifyCompiled(t *testing.T) {
	sets := map[string]*fw.RuleSet{
		"empty":  fw.MustRuleSet(fw.Allow),
		"oracle": mustParse(t, policy.OraclePolicy),
	}
	d64, err := fw.DepthRuleSet(64, fw.AllowAllRule(), fw.Deny)
	if err != nil {
		t.Fatal(err)
	}
	sets["depth64"] = d64
	for seed := int64(1); seed <= 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		sets["gen"+string(rune('a'+seed-1))] = Generate(r, GenOptions{Rules: 8 + int(seed)*4})
	}
	for name, rs := range sets {
		res, err := VerifyCompiled(rs, VerifyOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.OK() {
			t.Fatalf("%s: proof failed: mismatch=%v parity=%q", name, res.Mismatch, res.ParityError)
		}
		if res.Regions == 0 {
			t.Fatalf("%s: proof checked zero regions", name)
		}
	}
}

// TestVerifyCountersUntouched: the proof must not pollute the live
// set's counters.
func TestVerifyCountersUntouched(t *testing.T) {
	rs := mustParse(t, policy.OraclePolicy)
	if _, err := VerifyCompiled(rs, VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
	if rs.EvalCount() != 0 {
		t.Fatalf("verification bumped the live set's eval counter to %d", rs.EvalCount())
	}
}

// TestVerifyDetectsMismatch drives the checker with a doctored live
// mask so the engine prediction disagrees with the real evaluators,
// proving the mismatch path actually fires.
func TestVerifyDetectsMismatch(t *testing.T) {
	rs := fw.MustRuleSet(fw.Deny, fw.AllowAllRule())
	sp := newSpace(rs)
	w := &verifyWalker{
		expander: newExpander(sp), t: sp.sets[0],
		walk:     fw.MustRuleSet(fw.Deny, fw.AllowAllRule()),
		compiled: fw.Compile(fw.MustRuleSet(fw.Deny, fw.AllowAllRule())),
		budget:   1 << 20,
		res:      &VerifyResult{},
	}
	// Empty mask claims "no rule matches here": the engine predicts
	// the default deny, but both real matchers see the allow-all rule.
	spans := []fw.Span{{Lo: 0, Hi: 255}, {Lo: 0, Hi: ^uint32(0)}, {Lo: 0, Hi: ^uint32(0)}}
	if err := w.check(class{Dir: fw.In}, make([]uint64, w.t.words), spans); err != nil {
		t.Fatal(err)
	}
	if w.res.Mismatch == nil {
		t.Fatal("doctored mask produced no mismatch")
	}
	if w.res.Mismatch.Engine.Action != fw.Deny || w.res.Mismatch.Walk.Action != fw.Allow {
		t.Fatalf("unexpected mismatch verdicts: %v", w.res.Mismatch)
	}
}

// TestVerifyBudget: the region guard must error out rather than
// silently truncate the proof.
func TestVerifyBudget(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	rs := Generate(r, GenOptions{Rules: 24})
	if _, err := VerifyCompiled(rs, VerifyOptions{MaxRegions: 10}); err == nil {
		t.Fatal("want budget-exceeded error, got nil")
	}
}

// TestGenerateDeterministic: same seed, same rule set.
func TestGenerateDeterministic(t *testing.T) {
	a := Generate(rand.New(rand.NewSource(42)), GenOptions{})
	b := Generate(rand.New(rand.NewSource(42)), GenOptions{})
	if a.String() != b.String() {
		t.Fatal("same seed produced different rule sets")
	}
	c := Generate(rand.New(rand.NewSource(43)), GenOptions{})
	if a.String() == c.String() {
		t.Fatal("different seeds produced identical rule sets")
	}
	if a.Len() != 24 {
		t.Fatalf("default rule count = %d, want 24", a.Len())
	}
}

// TestRegionWitnessInside: the witness of a region built from real
// spans must evaluate inside that region (spot-check via Eval against
// the first live rule the engine predicts).
func TestRegionWitnessInside(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		rs := Generate(r, GenOptions{Rules: 10})
		res, err := VerifyCompiled(rs, VerifyOptions{})
		if err != nil || !res.OK() {
			t.Fatalf("trial %d: %v %+v", trial, err, res)
		}
	}
}

// TestU128MatchesBigInt checks Diff's fixed-width counts against
// math/big: the universe size, random products and sums, and the
// overflow panic past 128 bits.
func TestU128MatchesBigInt(t *testing.T) {
	want := new(big.Int)
	for _, c := range classes {
		p := big.NewInt(1)
		for _, axis := range axesFor(c) {
			p.Mul(p, new(big.Int).SetUint64(uint64(axisMax[axis])+1))
		}
		want.Add(want, p)
	}
	if got := universe.big(); got.Cmp(want) != 0 {
		t.Fatalf("universe = %v, want %v", got, want)
	}

	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		x := u128{hi: r.Uint64() >> 34, lo: r.Uint64()}
		y := u128{hi: r.Uint64() >> 34, lo: r.Uint64()}
		m := r.Uint64() >> 32
		got := x.mul64(m).add(y).big()
		want := new(big.Int).Mul(x.big(), new(big.Int).SetUint64(m))
		want.Add(want, y.big())
		if got.Cmp(want) != 0 {
			t.Fatalf("%v*%d+%v = %v, want %v", x.big(), m, y.big(), got, want)
		}
	}

	for name, f := range map[string]func(){
		"add": func() { u128{hi: ^uint64(0)}.add(u128{hi: 1}) },
		"mul": func() { u128{hi: 1 << 63}.mul64(2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s past 128 bits did not panic", name)
				}
			}()
			f()
		}()
	}
}
