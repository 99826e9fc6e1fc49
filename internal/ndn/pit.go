package ndn

import (
	"bytes"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
)

// PITRecord is one aggregated requester: the paper extends the classic
// face-set aggregation with the full 3-tuple <T_u, F, InFace_u>
// (Protocol 4 line 4) so the router can validate each aggregated tag
// when the content arrives. "The addition of the tag adds an overhead to
// the PIT entry but it is of the order of a couple hundred bytes" (§5.C).
type PITRecord struct {
	// Tag is T_u; nil for tagless requests.
	Tag *core.Tag
	// Flag is the F carried by the aggregated Interest.
	Flag float64
	// InFace is the face the Interest arrived on; the Data for this
	// record is forwarded there (reverse-path forwarding).
	InFace FaceID
	// Nonce is the Interest's nonce, for duplicate suppression.
	Nonce uint64
	// Arrived is when the Interest reached this router, for latency
	// accounting.
	Arrived time.Time
}

// PITEntry is the pending-Interest state for one content name: the
// primary record (the Interest actually forwarded upstream) plus every
// aggregated record.
type PITEntry struct {
	// Name is the content name.
	Name names.Name
	// Records lists the requesters; Records[0] is the primary (the
	// Interest that created the entry and was forwarded).
	Records []PITRecord
	// Expires is the entry's lifetime deadline; expired entries free
	// their requesters' windows (the paper's 1 s request expiry, §8.B).
	Expires time.Time
	// OutFace is the face the primary Interest was forwarded to
	// (FaceNone until a forwarder records it). Entries whose upstream
	// face dies are flushed (DropByOutFace) so retransmissions create a
	// fresh entry and are re-forwarded instead of aggregating onto a
	// request that can never be satisfied.
	OutFace FaceID
}

// HasNonce reports whether a record with the nonce is already
// aggregated (loop/duplicate suppression).
func (e *PITEntry) HasNonce(nonce uint64) bool {
	for _, r := range e.Records {
		if r.Nonce == nonce {
			return true
		}
	}
	return false
}

// hasRequester reports whether a record from face with tag t is already
// aggregated: a fresh nonce from it is that requester's retransmission.
// Matching the tag as well as the face matters where one face carries
// many requesters (a simulated access point).
func (e *PITEntry) hasRequester(face FaceID, t *core.Tag) bool {
	for _, r := range e.Records {
		if r.InFace == face && (r.Tag == t || r.Tag != nil && t != nil && bytes.Equal(r.Tag.CacheKey(), t.CacheKey())) {
			return true
		}
	}
	return false
}
