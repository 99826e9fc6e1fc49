package ndn

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/pki"
)

// --- FIB ---------------------------------------------------------------------

func TestFIBLongestPrefixMatch(t *testing.T) {
	f := NewFIB()
	f.Insert(names.MustParse("/"), 1)
	f.Insert(names.MustParse("/prov0"), 2)
	f.Insert(names.MustParse("/prov0/obj1"), 3)

	cases := []struct {
		name string
		want FaceID
	}{
		{"/prov0/obj1/chunk0", 3},
		{"/prov0/obj2/chunk0", 2},
		{"/prov1/obj1", 1},
		{"/", 1},
	}
	for _, tc := range cases {
		got, ok := f.Lookup(names.MustParse(tc.name))
		if !ok || got != tc.want {
			t.Errorf("Lookup(%q) = %v,%v, want %v", tc.name, got, ok, tc.want)
		}
	}
}

func TestFIBNoDefaultRoute(t *testing.T) {
	f := NewFIB()
	f.Insert(names.MustParse("/prov0"), 2)
	if _, ok := f.Lookup(names.MustParse("/prov1/x")); ok {
		t.Error("lookup without covering prefix should miss")
	}
}

func TestFIBReplaceAndRemove(t *testing.T) {
	f := NewFIB()
	p := names.MustParse("/prov0")
	f.Insert(p, 1)
	f.Insert(p, 2)
	if got, _ := f.Lookup(p); got != 2 {
		t.Errorf("replaced route = %v", got)
	}
	if f.Len() != 1 {
		t.Errorf("Len = %d", f.Len())
	}
	if !f.Remove(p) {
		t.Error("Remove existing returned false")
	}
	if f.Remove(p) {
		t.Error("Remove missing returned true")
	}
	if _, ok := f.Lookup(p); ok {
		t.Error("removed route still matches")
	}
}

// fibNaiveLookup is the reference LPM for the property test.
func fibNaiveLookup(routes map[string]FaceID, name names.Name) (FaceID, bool) {
	best, bestLen, found := FaceNone, -1, false
	for prefix, face := range routes {
		p := names.MustParse(prefix)
		if name.HasPrefix(p) && p.Len() > bestLen {
			best, bestLen, found = face, p.Len(), true
		}
	}
	return best, found
}

func TestPropertyFIBMatchesNaive(t *testing.T) {
	comps := []string{"a", "b", "c"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fib := NewFIB()
		routes := make(map[string]FaceID)
		for i := 0; i < 10; i++ {
			depth := r.Intn(4)
			parts := make([]string, depth)
			for j := range parts {
				parts[j] = comps[r.Intn(len(comps))]
			}
			prefix := names.MustNew(parts...)
			face := FaceID(r.Intn(5))
			fib.Insert(prefix, face)
			routes[prefix.Key()] = face
		}
		for i := 0; i < 20; i++ {
			depth := r.Intn(5)
			parts := make([]string, depth)
			for j := range parts {
				parts[j] = comps[r.Intn(len(comps))]
			}
			name := names.MustNew(parts...)
			gotFace, gotOK := fib.Lookup(name)
			wantFace, wantOK := fibNaiveLookup(routes, name)
			if gotOK != wantOK || (gotOK && gotFace != wantFace) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// --- PIT ---------------------------------------------------------------------

func pitTime(sec int64) time.Time { return time.Unix(sec, 0) }

func TestPITCreateAndAggregate(t *testing.T) {
	p := NewShardedPIT()
	name := names.MustParse("/prov0/obj/c0")
	if o, _ := p.Admit(name, PITRecord{InFace: 1, Nonce: 10}, pitTime(0), pitTime(5)); o != PITNew {
		t.Fatalf("first admit = %v, want PITNew", o)
	}
	if o, _ := p.Admit(name, PITRecord{InFace: 2, Nonce: 11, Flag: 0.5}, pitTime(0), pitTime(6)); o != PITAggregated {
		t.Errorf("second admit = %v, want PITAggregated", o)
	}
	created, aggregated, _ := p.Stats()
	if created != 1 || aggregated != 1 {
		t.Errorf("stats = %d created, %d aggregated", created, aggregated)
	}
	e, ok := p.Consume(name)
	if !ok || len(e.Records) != 2 {
		t.Fatalf("consume: ok=%v entry=%+v", ok, e)
	}
	if e.Records[1].Flag != 0.5 || e.Records[1].InFace != 2 {
		t.Error("aggregated tuple <T, F, InFace> not preserved")
	}
	if !e.Expires.Equal(pitTime(6)) {
		t.Error("aggregation should extend entry lifetime")
	}
	if !e.HasNonce(11) || e.HasNonce(12) {
		t.Error("HasNonce does not reflect the aggregated nonces")
	}
}

func TestPITConsume(t *testing.T) {
	p := NewShardedPIT()
	name := names.MustParse("/prov0/obj/c0")
	p.Admit(name, PITRecord{InFace: 1}, pitTime(0), pitTime(5))
	e, ok := p.Consume(name)
	if !ok || e == nil {
		t.Fatal("consume failed")
	}
	if p.Len() != 0 {
		t.Error("consumed entry still present")
	}
	if _, ok := p.Consume(name); ok {
		t.Error("double consume succeeded")
	}
}

func TestPITExpiry(t *testing.T) {
	p := NewShardedPIT()
	p.Admit(names.MustParse("/a/1"), PITRecord{Nonce: 1}, pitTime(0), pitTime(5))
	p.Admit(names.MustParse("/a/2"), PITRecord{Nonce: 2}, pitTime(0), pitTime(10))
	expired := p.ExpireBefore(pitTime(7))
	if len(expired) != 1 || !expired[0].Name.Equal(names.MustParse("/a/1")) {
		t.Errorf("expired = %v", expired)
	}
	if p.Len() != 1 {
		t.Errorf("remaining = %d", p.Len())
	}
	_, _, expCount := p.Stats()
	if expCount != 1 {
		t.Errorf("expired count = %d", expCount)
	}
	// An Interest for a name whose entry lapsed starts a fresh entry.
	p.Admit(names.MustParse("/a/3"), PITRecord{Nonce: 3}, pitTime(0), pitTime(5))
	if o, _ := p.Admit(names.MustParse("/a/3"), PITRecord{Nonce: 4}, pitTime(6), pitTime(11)); o != PITNew {
		t.Errorf("admit onto an expired entry = %v, want PITNew", o)
	}
}

func TestPITNonceDedup(t *testing.T) {
	p := NewShardedPIT()
	name := names.MustParse("/a/1")
	p.Admit(name, PITRecord{InFace: 1, Nonce: 42}, pitTime(0), pitTime(5))
	if o, _ := p.Admit(name, PITRecord{InFace: 2, Nonce: 42}, pitTime(0), pitTime(5)); o != PITDuplicate {
		t.Errorf("same nonce = %v, want PITDuplicate", o)
	}
	if o, _ := p.Admit(name, PITRecord{InFace: 2, Nonce: 43}, pitTime(0), pitTime(5)); o != PITAggregated {
		t.Errorf("fresh nonce = %v, want PITAggregated", o)
	}
}

// TestPITRetransmit pins which fresh nonces count as a retransmission
// (re-forwarded upstream): only one from a face that already holds a
// record with the same tag. One face can carry many requesters (a
// simulated access point), so a fresh tag on a known face aggregates.
func TestPITRetransmit(t *testing.T) {
	alice := &core.Tag{ClientKey: names.MustParse("/users/alice/KEY/1"), Expiry: pitTime(100)}
	aliceCopy := *alice // a decoded retransmission is a distinct pointer
	bob := &core.Tag{ClientKey: names.MustParse("/users/bob/KEY/1"), Expiry: pitTime(100)}
	p := NewShardedPIT()
	name := names.MustParse("/a/1")
	p.Admit(name, PITRecord{InFace: 1, Tag: alice, Nonce: 1}, pitTime(0), pitTime(5))
	if o, out := p.Admit(name, PITRecord{InFace: 1, Tag: &aliceCopy, Nonce: 2}, pitTime(0), pitTime(5)); o != PITRetransmit || out != FaceNone {
		t.Errorf("retransmission before the forward = (%v, %v), want (PITRetransmit, FaceNone)", o, out)
	}
	p.SetOutFace(name, 9)
	for _, c := range []struct {
		rec  PITRecord
		want AdmitOutcome
	}{
		{PITRecord{InFace: 1, Tag: alice, Nonce: 3}, PITRetransmit},
		{PITRecord{InFace: 1, Tag: bob, Nonce: 4}, PITAggregated},
		{PITRecord{InFace: 2, Tag: alice, Nonce: 5}, PITAggregated},
		{PITRecord{InFace: 3, Nonce: 6}, PITAggregated},
		{PITRecord{InFace: 3, Nonce: 7}, PITRetransmit},
	} {
		o, out := p.Admit(name, c.rec, pitTime(0), pitTime(5))
		if o != c.want || out != 9 {
			t.Errorf("admit %+v = (%v, %v), want (%v, 9)", c.rec, o, out, c.want)
		}
	}
}

func TestPropertyPITRecordCount(t *testing.T) {
	// Total records across the PIT equals inserts minus consumed/expired
	// records.
	f := func(ops []uint8) bool {
		p := NewShardedPIT()
		inserted, removed := 0, 0
		nms := []names.Name{names.MustParse("/a"), names.MustParse("/b"), names.MustParse("/c")}
		for i, op := range ops {
			n := nms[int(op)%len(nms)]
			switch {
			case op%3 != 0:
				p.Admit(n, PITRecord{Nonce: uint64(i)}, pitTime(0), pitTime(100))
				inserted++
			default:
				if e, ok := p.Consume(n); ok {
					removed += len(e.Records)
				}
			}
		}
		live := 0
		for _, n := range nms {
			if e, ok := p.Consume(n); ok {
				live += len(e.Records)
			}
		}
		return live == inserted-removed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// --- CS ----------------------------------------------------------------------

func chunk(t *testing.T, name string) *core.Content {
	t.Helper()
	return &core.Content{
		Meta:    core.ContentMeta{Name: names.MustParse(name), Level: 1},
		Payload: []byte("payload"),
	}
}

func TestCSInsertLookup(t *testing.T) {
	cs := NewCS(2)
	cs.Insert(chunk(t, "/a/1"))
	if got, ok := cs.Lookup(names.MustParse("/a/1")); !ok || got == nil {
		t.Fatal("lookup after insert failed")
	}
	if _, ok := cs.Lookup(names.MustParse("/a/2")); ok {
		t.Error("phantom hit")
	}
	hits, misses, _ := cs.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d/%d", hits, misses)
	}
}

func TestCSLRUEviction(t *testing.T) {
	cs := NewCS(2)
	cs.Insert(chunk(t, "/a/1"))
	cs.Insert(chunk(t, "/a/2"))
	// Touch /a/1 so /a/2 becomes LRU.
	cs.Lookup(names.MustParse("/a/1"))
	cs.Insert(chunk(t, "/a/3"))
	if cs.Contains(names.MustParse("/a/2")) {
		t.Error("LRU entry survived eviction")
	}
	if !cs.Contains(names.MustParse("/a/1")) || !cs.Contains(names.MustParse("/a/3")) {
		t.Error("wrong entry evicted")
	}
	if _, _, evicted := cs.Stats(); evicted != 1 {
		t.Errorf("evicted = %d", evicted)
	}
}

func TestCSReinsertRefreshes(t *testing.T) {
	cs := NewCS(2)
	cs.Insert(chunk(t, "/a/1"))
	cs.Insert(chunk(t, "/a/2"))
	cs.Insert(chunk(t, "/a/1")) // refresh, /a/2 now LRU
	cs.Insert(chunk(t, "/a/3"))
	if cs.Contains(names.MustParse("/a/2")) {
		t.Error("refreshed entry should not be LRU")
	}
	if cs.Len() != 2 {
		t.Errorf("Len = %d", cs.Len())
	}
}

func TestCSZeroCapacity(t *testing.T) {
	cs := NewCS(0)
	cs.Insert(chunk(t, "/a/1"))
	if cs.Len() != 0 {
		t.Error("zero-capacity CS cached a chunk")
	}
	if _, ok := cs.Lookup(names.MustParse("/a/1")); ok {
		t.Error("zero-capacity CS hit")
	}
}

func TestPropertyCSNeverExceedsCapacity(t *testing.T) {
	f := func(inserts []uint8, capRaw uint8) bool {
		capacity := int(capRaw%10) + 1
		cs := NewCS(capacity)
		for _, i := range inserts {
			cs.Insert(&core.Content{Meta: core.ContentMeta{
				Name: names.MustParse("/x").MustAppend(string(rune('a' + i%26))),
			}})
		}
		return cs.Len() <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// --- Packets -----------------------------------------------------------------

func TestWireSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	signer, err := pki.GenerateFast(rng, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	tag, err := core.IssueTag(signer, names.MustParse("/u/alice/KEY/1"), 1, 0, pitTime(100))
	if err != nil {
		t.Fatal(err)
	}
	name := names.MustParse("/prov0/obj/c0")

	bare := &Interest{Name: name, Kind: KindContent}
	tagged := &Interest{Name: name, Kind: KindContent, Tag: tag}
	if tagged.WireSize() <= bare.WireSize() {
		t.Error("tag should add wire size")
	}
	if diff := tagged.WireSize() - bare.WireSize(); diff != tag.Size() {
		t.Errorf("tag overhead = %d, want %d", diff, tag.Size())
	}

	d := &Data{Name: name, Content: &core.Content{
		Meta:    core.ContentMeta{Name: name},
		Payload: make([]byte, 1024),
	}}
	if d.WireSize() < 1024 {
		t.Errorf("data wire size %d smaller than payload", d.WireSize())
	}
	dTagged := *d
	dTagged.Tag = tag
	if dTagged.WireSize() != d.WireSize()+tag.Size() {
		t.Error("data tag overhead mismatch")
	}
}
