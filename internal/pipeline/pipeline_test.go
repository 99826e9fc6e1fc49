package pipeline

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/bloom"
	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/enforce"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/pki"
)

// Faces of the test router: two clients, the upstream the route points
// at, and a face whose sends fail.
const (
	faceAlice ndn.FaceID = 1
	faceBob   ndn.FaceID = 2
	faceUp    ndn.FaceID = 7
	faceDead  ndn.FaceID = 8
)

var (
	t0      = time.Unix(1000, 0)
	prefix  = names.MustParse("/prov0")
	private = names.MustParse("/prov0/obj/c0")
	public  = names.MustParse("/prov0/pub/c0")
	apEdge  = core.EmptyAccessPath.Accumulate("edge-0")
)

// recorder is a Sink that logs every decision as one line.
type recorder struct {
	log []string
	// park decides Park: "inline" resumes at once, "hold" keeps the job,
	// anything else sheds.
	park string
	held []*Job
	p    *Pipeline
}

func (r *recorder) add(format string, args ...any) {
	r.log = append(r.log, fmt.Sprintf(format, args...))
}

func (r *recorder) SendData(_ any, face ndn.FaceID, d *ndn.Data) {
	line := fmt.Sprintf("data f%d", face)
	if d.Nack {
		line += " nack=" + core.ReasonLabel(d.NackReason)
	}
	if d.Content != nil {
		line += " content"
	}
	if d.Registration != nil {
		line += " registration"
	}
	r.add("%s", line)
}

func (r *recorder) SendInterest(_ any, face ndn.FaceID, i *ndn.Interest) error {
	flag := "F=0"
	if i.Flag != 0 {
		flag = "F>0"
	}
	r.add("interest f%d n%d %s", face, i.Nonce, flag)
	if face == faceDead {
		return ErrNoFace
	}
	return nil
}

func (r *recorder) Nack(reason error, i *ndn.Interest) {
	r.add("nack %s interest=%t", core.ReasonLabel(reason), i != nil)
}

func (r *recorder) Drop(cause string) { r.add("drop %s", cause) }

func (r *recorder) Park(j *Job) bool {
	r.add("park")
	switch r.park {
	case "inline":
		r.p.Resume(j)
	case "hold":
		r.held = append(r.held, j)
	default:
		return false
	}
	return true
}

func (r *recorder) Event(_ any, stage, detail string, start time.Time) {
	if !start.IsZero() {
		stage += "(timed)"
	}
	r.add("event %s %s", stage, detail)
}

func (r *recorder) End(_ any, outcome, detail string) { r.add("end %s %s", outcome, detail) }

// fixture is one router under test plus the material to drive it.
type fixture struct {
	p      *Pipeline
	rec    *recorder
	router *enforce.Router
	cs     *ndn.CS
	valid  *core.Tag // level 2, bound to edge-0
	bob    *core.Tag // level 2, bound to edge-0
	low    *core.Tag // level 0
	forged *core.Tag
	wrong  *core.Tag // bound to another edge
	priv   *core.Content
	pub    *core.Content
}

func newFixture(t *testing.T, edge bool, cfg core.Config, cmp Comparators) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	prov, err := pki.GenerateFast(rng, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	rogue, err := pki.GenerateFast(rng, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	reg := pki.NewRegistry()
	if err := reg.Register(prov.Locator(), prov.Public()); err != nil {
		t.Fatal(err)
	}
	bf, err := bloom.NewPaper(500, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	issue := func(signer pki.Signer, user string, level core.AccessLevel, ap core.AccessPath) *core.Tag {
		tag, err := core.IssueTag(signer, names.MustParse("/users/"+user+"/KEY/1"), level, ap, t0.Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		return tag
	}
	f := &fixture{
		router: enforce.NewRouter("r", bf, core.NewTagValidator(reg), rng, cfg),
		cs:     ndn.NewCS(16),
		rec:    &recorder{park: "inline"},
		valid:  issue(prov, "alice", 2, apEdge),
		bob:    issue(prov, "bob", 2, apEdge),
		low:    issue(prov, "carol", 0, apEdge),
		forged: issue(rogue, "mallory", 2, apEdge),
		wrong:  issue(prov, "dave", 2, core.EmptyAccessPath.Accumulate("edge-1")),
		priv:   &core.Content{Meta: core.ContentMeta{Name: private, Level: 1, ProviderKey: prov.Locator()}},
		pub:    &core.Content{Meta: core.ContentMeta{Name: public, Level: core.Public, ProviderKey: prov.Locator()}},
	}
	f.p = New(f.router, f.cs, f.rec, edge, time.Second, cmp)
	f.rec.p = f.p
	f.p.FIB().Insert(prefix, faceUp)
	return f
}

func (f *fixture) interest(from ndn.FaceID, name names.Name, nonce uint64, tag *core.Tag, flag float64) {
	f.p.Interest(&ndn.Interest{Name: name, Kind: ndn.KindContent, Nonce: nonce, Tag: tag, Flag: flag, AccessPath: apEdge},
		Packet{From: from, Downstream: from != faceUp, Now: t0})
}

func (f *fixture) data(d *ndn.Data) { f.p.Data(d, Packet{From: faceUp, Now: t0}) }

// TestPipeline drives every decision through the recording sink: each
// case sets up a router, runs its packets, and compares the decision log
// of its last step.
func TestPipeline(t *testing.T) {
	for _, c := range []struct {
		name string
		edge bool
		cfg  core.Config
		cmp  Comparators
		park string
		// setup runs before the recorded step; step is recorded.
		setup, step func(f *fixture)
		want        []string
	}{
		{
			name: "edge forwards a BF miss with F=0, access path untouched",
			edge: true,
			step: func(f *fixture) { f.interest(faceAlice, private, 1, f.valid, 0) },
			want: []string{"interest f7 n1 F=0", "end forwarded "},
		},
		{
			name: "edge denies an access-path mismatch at Interest time",
			edge: true,
			step: func(f *fixture) { f.interest(faceAlice, private, 1, f.wrong, 0) },
			want: []string{"nack access_path interest=true", "data f1 nack=access_path", "end nack access_path"},
		},
		{
			name: "edge verifies a miss through Park and forwards with the BF's F",
			edge: true, cfg: core.Config{EdgeValidateOnMiss: true},
			step: func(f *fixture) { f.interest(faceAlice, private, 1, f.valid, 0) },
			want: []string{"park", "interest f7 n1 F>0", "end forwarded "},
		},
		{
			name: "edge NACKs a forged tag after verification",
			edge: true, cfg: core.Config{EdgeValidateOnMiss: true},
			step: func(f *fixture) { f.interest(faceAlice, private, 1, f.forged, 0) },
			want: []string{"park", "nack forged interest=true", "data f1 nack=forged", "end nack forged"},
		},
		{
			name: "a shed verification is an Overload NACK",
			edge: true, cfg: core.Config{EdgeValidateOnMiss: true}, park: "shed",
			step: func(f *fixture) { f.interest(faceAlice, private, 1, f.valid, 0) },
			want: []string{"park", "nack overload interest=true", "data f1 nack=overload", "end nack overload"},
		},
		{
			name: "a colluding edge skips Protocol 2",
			edge: true, cmp: Comparators{Colluding: true},
			step: func(f *fixture) { f.interest(faceAlice, private, 1, f.wrong, 0) },
			want: []string{"interest f7 n1 F=0", "end forwarded "},
		},
		{
			name:  "no route drops the Interest and frees its fresh PIT entry",
			setup: func(f *fixture) { f.p.FIB().Remove(prefix) },
			step: func(f *fixture) {
				f.interest(faceAlice, private, 1, f.valid, 0)
				f.rec.add("pit=%d", f.p.PIT().Len())
			},
			want: []string{"drop no_route", "end drop no_route", "pit=0"},
		},
		{
			name:  "a duplicate nonce is dropped",
			setup: func(f *fixture) { f.interest(faceAlice, private, 1, f.valid, 0) },
			step:  func(f *fixture) { f.interest(faceBob, private, 1, f.bob, 0) },
			want:  []string{"drop dup_nonce", "end drop dup_nonce"},
		},
		{
			name:  "another requester only aggregates",
			setup: func(f *fixture) { f.interest(faceAlice, private, 1, f.valid, 0) },
			step: func(f *fixture) {
				f.interest(faceBob, private, 2, f.bob, 0)
				f.interest(faceAlice, private, 3, f.bob, 0)
			},
			want: []string{"end aggregated ", "end aggregated "},
		},
		{
			name:  "the same requester's fresh nonce is re-forwarded",
			setup: func(f *fixture) { f.interest(faceAlice, private, 1, f.valid, 0) },
			step:  func(f *fixture) { f.interest(faceAlice, private, 2, f.valid, 0) },
			want:  []string{"interest f7 n2 F=0", "end aggregated "},
		},
		{
			name: "a failed re-forward is counted",
			setup: func(f *fixture) {
				f.interest(faceAlice, private, 1, f.valid, 0)
				f.p.PIT().SetOutFace(private, faceDead)
			},
			step: func(f *fixture) { f.interest(faceAlice, private, 2, f.valid, 0) },
			want: []string{"interest f8 n2 F=0", "drop no_face", "end drop no_face"},
		},
		{
			name:  "a failed forward is counted and frees the PIT entry",
			setup: func(f *fixture) { f.p.FIB().Insert(prefix, faceDead) },
			step: func(f *fixture) {
				f.interest(faceAlice, private, 1, f.valid, 0)
				f.rec.add("pit=%d", f.p.PIT().Len())
			},
			want: []string{"interest f8 n1 F=0", "drop no_face", "end drop no_face", "pit=0"},
		},
		{
			name:  "a CS hit with F=0 is verified through Park",
			setup: func(f *fixture) { f.cs.Insert(f.priv) },
			step:  func(f *fixture) { f.interest(faceAlice, private, 1, f.valid, 0) },
			want:  []string{"park", "data f1 content", "end cs_hit "},
		},
		{
			name:  "a CS hit for a forged tag gets the content alongside its NACK",
			setup: func(f *fixture) { f.cs.Insert(f.priv) },
			step:  func(f *fixture) { f.interest(faceAlice, private, 1, f.forged, 0) },
			want:  []string{"park", "nack forged interest=false", "data f1 nack=forged content", "end nack forged"},
		},
		{
			name:  "DropOnNACK strips the content from a CS-hit NACK",
			cmp:   Comparators{DropContentOnNACK: true},
			setup: func(f *fixture) { f.cs.Insert(f.priv) },
			step:  func(f *fixture) { f.interest(faceAlice, private, 1, f.low, 0) },
			want:  []string{"nack level interest=false", "data f1 nack=level", "end nack level"},
		},
		{
			name:  "a shed CS-hit verification is an Overload NACK",
			park:  "shed",
			setup: func(f *fixture) { f.cs.Insert(f.priv) },
			step:  func(f *fixture) { f.interest(faceAlice, private, 1, f.valid, 0) },
			want:  []string{"park", "nack overload interest=true", "data f1 nack=overload", "end nack overload"},
		},
		{
			name:  "a vouched CS hit skips the re-check",
			setup: func(f *fixture) { f.cs.Insert(f.priv) },
			step:  func(f *fixture) { f.interest(faceAlice, private, 1, f.valid, 1e-12) },
			want:  []string{"data f1 content", "end cs_hit "},
		},
		{
			name:  "without enforcement a CS hit is served",
			cmp:   Comparators{DisableEnforcement: true},
			setup: func(f *fixture) { f.cs.Insert(f.priv) },
			step:  func(f *fixture) { f.interest(faceAlice, private, 1, f.forged, 0) },
			want:  []string{"data f1 content", "end cs_hit "},
		},
		{
			name: "NoPrivateCache neither caches nor serves private content",
			cmp:  Comparators{NoPrivateCache: true},
			setup: func(f *fixture) {
				f.cs.Insert(f.priv)
				f.interest(faceAlice, public, 1, nil, 0)
				f.data(&ndn.Data{Name: public, Content: f.pub})
			},
			step: func(f *fixture) {
				f.interest(faceAlice, private, 2, f.valid, 0)
				f.interest(faceAlice, public, 3, nil, 0)
			},
			want: []string{"interest f7 n2 F=0", "end forwarded ", "data f1 content", "end cs_hit "},
		},
		{
			name: "unsolicited Data is dropped",
			step: func(f *fixture) { f.data(&ndn.Data{Name: private, Content: f.priv}) },
			want: []string{"drop unsolicited", "end drop unsolicited"},
		},
		{
			name: "a core relays the primary's NACK and judges each aggregated record",
			setup: func(f *fixture) {
				f.interest(faceAlice, private, 1, f.forged, 0)
				f.interest(faceBob, private, 2, f.valid, 0)
				f.interest(3, private, 3, nil, 0)
				f.interest(4, private, 4, f.forged, 0)
			},
			step: func(f *fixture) {
				f.data(&ndn.Data{Name: private, Content: f.priv, Nack: true, NackReason: core.ErrTagForged})
			},
			want: []string{
				"data f1 nack=forged content",
				"data f2 content",
				"nack no_tag interest=false", "data f3 nack=no_tag content",
				"nack forged interest=false", "data f4 nack=forged content",
				"end relayed_nack forged",
			},
		},
		{
			name: "a core propagates a pure NACK to aggregated records",
			setup: func(f *fixture) {
				f.interest(faceAlice, private, 1, f.forged, 0)
				f.interest(faceBob, private, 2, f.valid, 0)
			},
			step: func(f *fixture) { f.data(&ndn.Data{Name: private, Nack: true, NackReason: core.ErrTagForged}) },
			want: []string{"data f1 nack=forged", "data f2 nack=forged", "end relayed_nack forged"},
		},
		{
			name: "an edge NACKs the client it cannot deliver to and serves the rest",
			edge: true,
			setup: func(f *fixture) {
				f.interest(faceAlice, private, 1, f.forged, 0)
				f.interest(faceBob, private, 2, f.valid, 0)
				f.interest(3, private, 3, nil, 0)
			},
			step: func(f *fixture) {
				f.data(&ndn.Data{Name: private, Content: f.priv, Nack: true, NackReason: core.ErrTagForged})
			},
			want: []string{
				"drop undeliverable", "data f1 nack=forged",
				"data f2 content",
				"drop undeliverable",
				"end relayed_nack forged",
			},
		},
		{
			name: "an edge NACKs aggregated records of a pure NACK with the upstream reason",
			edge: true,
			setup: func(f *fixture) {
				f.interest(faceAlice, private, 1, f.forged, 0)
				f.interest(faceBob, private, 2, f.valid, 0)
			},
			step: func(f *fixture) { f.data(&ndn.Data{Name: private, Nack: true, NackReason: core.ErrTagForged}) },
			want: []string{"drop undeliverable", "data f1 nack=forged", "drop undeliverable", "data f2 nack=forged", "end relayed_nack forged"},
		},
		{
			name:  "an edge serves tagless requesters Public content",
			edge:  true,
			setup: func(f *fixture) { f.interest(faceAlice, public, 1, nil, 0) },
			step:  func(f *fixture) { f.data(&ndn.Data{Name: public, Content: f.pub}) },
			want:  []string{"data f1 content", "end delivered "},
		},
		{
			name:  "a colluding edge delivers NACKed content",
			edge:  true,
			cmp:   Comparators{Colluding: true},
			setup: func(f *fixture) { f.interest(faceAlice, private, 1, f.forged, 0) },
			step: func(f *fixture) {
				f.data(&ndn.Data{Name: private, Content: f.priv, Nack: true, NackReason: core.ErrTagForged})
			},
			want: []string{"data f1 content", "end relayed_nack forged"},
		},
		{
			name: "without enforcement every record gets the content",
			edge: true,
			cmp:  Comparators{DisableEnforcement: true},
			setup: func(f *fixture) {
				f.interest(faceAlice, private, 1, f.forged, 0)
				f.interest(faceBob, private, 2, nil, 0)
			},
			step: func(f *fixture) { f.data(&ndn.Data{Name: private, Content: f.priv}) },
			want: []string{"data f1 content", "data f2 content", "end delivered "},
		},
		{
			name: "an edge learns a registered tag and relays the response",
			edge: true,
			setup: func(f *fixture) {
				f.p.Interest(&ndn.Interest{Name: private, Kind: ndn.KindRegistration, Nonce: 1}, Packet{From: faceAlice, Now: t0})
			},
			step: func(f *fixture) {
				f.data(&ndn.Data{Name: private, Registration: &core.RegistrationResponse{Tag: f.valid}})
				f.rec.add("bf=%d", f.router.Bloom().Count())
				f.data(&ndn.Data{Name: private, Registration: &core.RegistrationResponse{Tag: f.valid}})
			},
			want: []string{"data f1 registration", "end registration ", "bf=1", "drop unsolicited", "end drop unsolicited"},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := newFixture(t, c.edge, c.cfg, c.cmp)
			if c.park != "" {
				f.rec.park = c.park
			}
			if c.setup != nil {
				c.setup(f)
			}
			f.rec.log = nil
			c.step(f)
			if !reflect.DeepEqual(f.rec.log, c.want) {
				t.Errorf("decisions:\n  got  %s\n  want %s", strings.Join(f.rec.log, " | "), strings.Join(c.want, " | "))
			}
		})
	}
}

// TestPipelineParkedJobs covers a verifier that resumes or denies jobs
// later, from outside the packet's pass.
func TestPipelineParkedJobs(t *testing.T) {
	f := newFixture(t, true, core.Config{EdgeValidateOnMiss: true}, Comparators{})
	f.rec.park = "hold"
	f.interest(faceAlice, private, 1, f.valid, 0)
	f.interest(faceBob, private, 2, f.bob, 0)
	if len(f.rec.held) != 2 {
		t.Fatalf("held %d jobs, want 2", len(f.rec.held))
	}
	f.rec.log = nil
	f.p.Resume(f.rec.held[0])
	f.p.Deny(f.rec.held[1], core.ErrTagRevoked)
	want := []string{"interest f7 n1 F>0", "end forwarded ",
		"nack revoked interest=true", "data f2 nack=revoked", "end nack revoked"}
	if !reflect.DeepEqual(f.rec.log, want) {
		t.Errorf("decisions:\n  got  %s\n  want %s", strings.Join(f.rec.log, " | "), strings.Join(want, " | "))
	}
}

// TestPipelineTrace covers the annotations a traced packet gets and the
// stage timings a timed one reports.
func TestPipelineTrace(t *testing.T) {
	f := newFixture(t, true, core.Config{EdgeValidateOnMiss: true}, Comparators{})
	traced := Packet{From: faceAlice, Downstream: true, Now: t0, Span: "span", Timed: true}
	first := &ndn.Interest{Name: private, Kind: ndn.KindContent, Nonce: 1, Tag: f.valid, AccessPath: apEdge}
	f.p.Interest(first, traced)
	f.cs.Insert(f.priv)
	f.p.Interest(&ndn.Interest{Name: private, Kind: ndn.KindContent, Nonce: 2, Tag: f.valid, Flag: 1e-12}, Packet{From: faceUp, Now: t0, Span: "span"})
	f.p.Interest(&ndn.Interest{Name: public, Kind: ndn.KindContent, Nonce: 3, Flag: 1e-12}, Packet{From: faceUp, Now: t0, Span: "span"})
	want := []string{
		"event precheck ok", "event bf_lookup(timed) miss", "event park verify", "park",
		"event verify ok", "event flag " + FormatFlag(first.Flag), "event pit_cs(timed) ", "interest f7 n1 F>0",
		"event encode_send(timed) ", "end forwarded ",
		"event flag F=1e-12", "event flag_check recheck_skipped", "data f7 content", "end cs_hit ",
		"event flag F=1e-12", "interest f7 n3 F>0", "end forwarded ",
	}
	if !reflect.DeepEqual(f.rec.log, want) {
		t.Errorf("events:\n  got  %s\n  want %s", strings.Join(f.rec.log, " | "), strings.Join(want, " | "))
	}
}
