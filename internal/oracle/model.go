package oracle

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/tactic-icn/tactic/internal/core"
)

// RefSet is the reference model's stand-in for a router's Bloom filter:
// an exact set of validated tag keys with an explicit false-positive
// injection knob. At the scenario scale the real planes' filters
// (capacity 500, max FPP 1e-4) hold a handful of tags, so their
// false-positive probability is astronomically small and they behave as
// exact sets — which is what makes a deterministic oracle possible. The
// FPRate knob lets tests reintroduce false positives on demand to
// exercise the paper's collaborative-verification machinery (flag F)
// inside the oracle alone.
type RefSet struct {
	members map[string]bool
	fpRate  float64
	rng     *rand.Rand
}

func newRefSet(fpRate float64, rng *rand.Rand) *RefSet {
	return &RefSet{members: make(map[string]bool), fpRate: fpRate, rng: rng}
}

// Contains reports membership; with a nonzero FPRate it additionally
// returns true spuriously with that probability, like a Bloom filter
// would. The rng is only consulted when FPRate > 0, so the default
// model is rng-free and bit-for-bit deterministic.
func (s *RefSet) Contains(key string) bool {
	if s.members[key] {
		return true
	}
	return s.fpRate > 0 && s.rng.Float64() < s.fpRate
}

// Add records a validated tag key.
func (s *RefSet) Add(key string) { s.members[key] = true }

// FPP reports the set's configured false-positive rate — the value the
// edge would carry upstream as flag F.
func (s *RefSet) FPP() float64 { return s.fpRate }

// Knobs parameterizes the reference model. The two Disable* knobs
// mirror core.Config.DisablePrecheck split per enforcement point; they
// exist so tests can verify the harness catches injected semantics bugs
// symmetrically (bugging the oracle must diverge from a correct plane
// exactly like bugging a plane diverges from the correct oracle).
type Knobs struct {
	// Scheme selects the enforcement backend the model mirrors:
	// core.SchemeTACTIC (default) or core.SchemeIBAC. Under IBAC the
	// validated-set keys bind (tag, name), the edge always settles a
	// miss itself, access-path binding is off, no router trusts a
	// downstream vouch (no flag-F re-check path), and the edge never
	// learns tags from the data path.
	Scheme core.Scheme
	// FPRate is the false-positive probability of every RefSet.
	FPRate float64
	// Seed drives the false-positive and re-check draws; only consulted
	// when FPRate > 0.
	Seed int64
	// DisableEdgePrecheck skips Protocol 1's edge half (prefix + expiry).
	DisableEdgePrecheck bool
	// DisableContentPrecheck skips Protocol 1's content half (level + key).
	DisableContentPrecheck bool
	// DisableRevocationCheck skips the pre-BF revocation-set lookup,
	// mirroring core.Config.DisableRevocationCheck: an explicitly
	// revoked tag then behaves like a valid one until its T_e.
	DisableRevocationCheck bool
	// EdgeValidateOnMiss mirrors core.Config.EdgeValidateOnMiss: the
	// edge settles a validated-set miss itself (signature check, then
	// set insert) instead of stamping F = 0 and deferring to the
	// content router. Flood scenarios run with it on — edge-side
	// verification is what the admission budget protects.
	EdgeValidateOnMiss bool
	// AdmissionBudget caps, per (step, edge), how many validated-set
	// misses are admitted into edge verification; the rest are denied
	// "overload" at StageEdgeInterest, in request order — the reference
	// mirror of the planes' per-face verify admission budgets. 0 means
	// unbounded (the DisableAdmission ablation).
	AdmissionBudget int
	// DisableAdmission removes the admission cap while the planes keep
	// theirs — the oracle-side "forgot to cap" injection, which must
	// diverge from correct planes exactly like an uncapped plane
	// diverges from the correct oracle.
	DisableAdmission bool
}

// Stage identifies where the enforcement pipeline settled a request.
type Stage int

const (
	// StageDelivered: content reached the client.
	StageDelivered Stage = iota
	// StageEdgeInterest: denied by the edge router at Interest time
	// (Protocol 2 line 2 / Protocol 1 edge half).
	StageEdgeInterest
	// StageContent: denied at the content resolution point (Protocol 3 /
	// Protocol 1 content half); a NACK — with the content alongside —
	// travels back toward the edge.
	StageContent
)

func (s Stage) String() string {
	switch s {
	case StageDelivered:
		return "delivered"
	case StageEdgeInterest:
		return "edge-interest"
	case StageContent:
		return "content"
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// RefOutcome is the oracle's verdict for one request.
type RefOutcome struct {
	// Request echoes the scenario request this verdict is for.
	Request RequestSpec
	// Delivered reports whether the client receives the content.
	Delivered bool
	// Stage says where a denied request was settled.
	Stage Stage
	// Reason is the core.ReasonLabel-style label for a denial ("" when
	// delivered).
	Reason string
	// Tagless marks a request sent without a tag.
	Tagless bool
	// ResolvedAtEdge reports the content was served (or denied) from the
	// edge router's own content store rather than upstream.
	ResolvedAtEdge bool
}

// Nacked predicts whether the client observes an explicit NACK. The
// edge converts every denial of a tagged request into an explicit NACK
// ("fail fast"); only tagless denials settled upstream stay silent.
func (o RefOutcome) Nacked() bool {
	return !o.Delivered && !(o.Tagless && !o.ResolvedAtEdge)
}

// RefResult is the oracle's full prediction for a scenario: per-request
// verdicts plus the end-of-run content-store contents of every router.
type RefResult struct {
	Outcomes []RefOutcome
	// CS maps router ID -> sorted content name keys cached there.
	CS map[string][]string
}

// RunReference replays a scenario against the naive reference model of
// the TACTIC enforcement state machine. It models each request
// independently on its edge→provider router path:
//
//   - Protocol 2 at the edge: Protocol 1 pre-check (prefix then expiry),
//     access-path binding, the pushed revocation set, then the
//     validated-tag set. A set hit marks the request "vouched" (flag
//     F > 0 in the real planes).
//   - Resolution at the first router whose content store held the name
//     at the start of the step (same-step fills are invisible, matching
//     both planes), else at the producer.
//   - Protocol 3 at the resolution point: Public bypass, tagless NACK,
//     Protocol 1 content half (level then key), then either the local
//     set / full validation (unvouched) or the probabilistic re-check
//     (vouched).
//   - Content — even alongside a NACK, the paper's §5.B trade-off —
//     caches at every router from the resolution point down to the edge.
//   - Protocol 2 on Data at the edge: NACKs are not delivered; a
//     delivery with flag 0 inserts the tag into the edge set, including
//     for Public content where nothing ever validated the tag (a real
//     TACTIC hole the conformance suite pins down).
//
// Per-request modeling is exact because the scenario generator never
// schedules requests whose *verdicts* could interact within a step:
// aggregation-variant combinations get exclusive (step, name) slots and
// each tag appears at most once per step. CS end state is
// order-independent by construction (see the package comment).
func RunReference(scn *Scenario, info *topoInfo, knobs Knobs) (*RefResult, error) {
	ibac := knobs.Scheme == core.SchemeIBAC
	// IBAC edges always settle a validated-set miss themselves — the
	// scheme has no downstream vouching to defer to.
	edgeValidates := knobs.EdgeValidateOnMiss || ibac
	rng := rand.New(rand.NewSource(knobs.Seed ^ 0x0ac1e))
	sets := make(map[string]*RefSet)
	setFor := func(id string) *RefSet {
		s, ok := sets[id]
		if !ok {
			s = newRefSet(knobs.FPRate, rng)
			sets[id] = s
		}
		return s
	}
	cs := make(map[string]map[string]bool)
	csInsert := func(router, name string) {
		m, ok := cs[router]
		if !ok {
			m = make(map[string]bool)
			cs[router] = m
		}
		m[name] = true
	}

	res := &RefResult{Outcomes: make([]RefOutcome, len(scn.Requests))}
	// admitted counts edge-verification admissions per (step, edge) for
	// the EdgeValidateOnMiss admission budget.
	admitted := make(map[[2]int]int)
	step := -1
	var csPrev map[string]map[string]bool
	for ri, r := range scn.Requests {
		if r.Step != step {
			// Snapshot the content stores at the step boundary: requests
			// resolve against pre-step state only.
			step = r.Step
			csPrev = make(map[string]map[string]bool, len(cs))
			for router, names := range cs {
				cp := make(map[string]bool, len(names))
				for n := range names {
					cp[n] = true
				}
				csPrev[router] = cp
			}
		}
		out := RefOutcome{Request: r, Tagless: r.Tag < 0}
		cSpec := scn.Contents[r.Content]
		edgePos := info.userEdge[r.User]
		name := info.contentName(scn, r.Content).Key()
		edgeSet := setFor(info.nodeID(info.edges[edgePos]))

		deny := func(stage Stage, reason string) {
			out.Stage, out.Reason = stage, reason
		}

		// --- Protocol 2 (edge, on Interest) --------------------------------
		vouched := false
		var tk string
		if r.Tag >= 0 {
			t := scn.Tags[r.Tag]
			tk = fmt.Sprintf("tag-%d", r.Tag)
			if ibac {
				// IBAC authorizes (token, name) pairs, not tokens.
				tk = fmt.Sprintf("tag-%d|%s", r.Tag, name)
			}
			if !knobs.DisableEdgePrecheck {
				if t.Provider != cSpec.Provider {
					deny(StageEdgeInterest, "prefix_mismatch")
				} else if tagExpiredAt(scn, t, r.Step) {
					deny(StageEdgeInterest, "expired")
				}
			}
			if out.Stage == StageDelivered && !ibac && t.Kind != TagRoaming && t.HomeEdge != edgePos {
				// Roaming tags carry the AccessPathAny wildcard, so the
				// binding check never fires for them. IBAC tokens are
				// location-independent: no binding check at all — the
				// scheme's borrowed-token gap.
				deny(StageEdgeInterest, "access_path")
			}
			if out.Stage == StageDelivered && t.Kind == TagRevoked && !knobs.DisableRevocationCheck {
				// The pushed revocation set is consulted before the
				// validated-tag set, so revocation wins even for a tag the
				// edge already vouches for. Content routers repeat the
				// check (core.Router does at every enforcement point), but
				// the edge always settles it first on this per-request
				// model.
				deny(StageEdgeInterest, "revoked")
			}
			if out.Stage == StageDelivered {
				vouched = edgeSet.Contains(tk)
			}
			if out.Stage == StageDelivered && !vouched && edgeValidates {
				// The edge settles the miss itself. Admission first: the
				// planes budget parked+in-flight verifications per face,
				// which this per-request model mirrors as a per
				// (step, edge) counter in request order — scenarios are
				// generated so the distinction cannot be observed (only
				// the flood burst exceeds the budget, and it arrives on
				// one face in request order).
				ek := [2]int{r.Step, edgePos}
				admitted[ek]++
				budget := knobs.AdmissionBudget
				if knobs.DisableAdmission {
					budget = 0
				}
				if budget > 0 && admitted[ek] > budget {
					deny(StageEdgeInterest, "overload")
				} else if t.Kind == TagForged || t.Kind == TagFlood {
					deny(StageEdgeInterest, "forged")
				} else if tagExpiredAt(scn, t, r.Step) {
					deny(StageEdgeInterest, "expired")
				} else {
					edgeSet.Add(tk)
					vouched = true
				}
			}
		}
		if out.Stage == StageEdgeInterest {
			res.Outcomes[ri] = out
			continue // nothing moves on an Interest-time denial
		}

		// --- resolution ----------------------------------------------------
		path, err := info.routerPath(edgePos, cSpec.Provider)
		if err != nil {
			return nil, err
		}
		resIdx := len(path) // producer
		for i, node := range path {
			if csPrev[info.nodeID(node)][name] {
				resIdx = i
				break
			}
		}
		out.ResolvedAtEdge = resIdx == 0
		var resSet *RefSet
		if resIdx == len(path) {
			resSet = setFor(info.nodeID(info.providers[cSpec.Provider]))
		} else {
			resSet = setFor(info.nodeID(path[resIdx]))
		}

		// --- Protocol 3 (+ Protocol 1 content half) at resolution ----------
		if cSpec.Level == core.Public {
			// Public bypass: serve, flag echoes.
		} else if r.Tag < 0 {
			deny(StageContent, "no_tag")
		} else {
			t := scn.Tags[r.Tag]
			if !knobs.DisableContentPrecheck {
				if !t.Level.Satisfies(cSpec.Level) {
					deny(StageContent, "level")
				} else if t.Provider != cSpec.Provider {
					deny(StageContent, "key_mismatch")
				}
			}
			if out.Stage == StageDelivered {
				if !vouched || ibac {
					// IBAC routers never trust a downstream vouch: the
					// resolution point always runs its own (token, name)
					// check, F = 0 on every wire.
					if !resSet.Contains(tk) {
						if tagExpiredAt(scn, t, r.Step) {
							deny(StageContent, "expired")
						} else if t.Kind == TagForged || t.Kind == TagFlood {
							deny(StageContent, "forged")
						} else {
							resSet.Add(tk)
						}
					}
				} else if knobs.FPRate > 0 && rng.Float64() < knobs.FPRate {
					// Probabilistic re-check of a vouched tag with
					// probability F (no insert on this path).
					if tagExpiredAt(scn, t, r.Step) {
						deny(StageContent, "expired")
					} else if t.Kind == TagForged || t.Kind == TagFlood {
						deny(StageContent, "forged")
					}
				}
			}
		}
		// --- content movement ----------------------------------------------
		// The resolution point was reached, so content (NACKed or not)
		// crosses and caches at every router below it.
		for i := 0; i < resIdx; i++ {
			csInsert(info.nodeID(path[i]), name)
		}

		// --- Protocol 2 (edge, on Data) ------------------------------------
		if out.Stage == StageDelivered {
			out.Delivered = true
			if r.Tag >= 0 && !vouched && !out.ResolvedAtEdge && !ibac {
				// Data arrived with flag 0: the edge learns the tag —
				// validated upstream for private content, or *unvalidated*
				// for Public content (TACTIC's unvalidated-insert hole).
				// IBAC has no data-path learning: authorization happened
				// at Interest time or not at all.
				edgeSet.Add(tk)
			}
		}
		res.Outcomes[ri] = out
	}

	res.CS = make(map[string][]string)
	for _, node := range append(append([]int(nil), info.cores...), info.edges...) {
		id := info.nodeID(node)
		names := make([]string, 0, len(cs[id]))
		for n := range cs[id] {
			names = append(names, n)
		}
		sort.Strings(names)
		res.CS[id] = names
	}
	return res, nil
}

// tagExpiredAt reports the scenario ground truth for whether a tag is
// expired at a given step; each plane's buildMaterial places concrete
// expiry instants realising exactly this table on its own clock.
func tagExpiredAt(scn *Scenario, t TagSpec, step int) bool {
	switch t.Kind {
	case TagPreExpired:
		return true
	case TagMidRun:
		return step >= scn.Boundary
	}
	return false
}
