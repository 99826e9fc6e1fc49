package forwarder

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/pipeline"
)

// The bounded asynchronous verification subsystem. Signature
// verification is the forwarder's 300x cost cliff (~100 µs per P-256
// verify against ~300 ns per BF lookup), and before this pool it ran
// inline on the per-face reader goroutines — so an attacker minting
// unseen tags on one face could stall that reader for the full verify
// latency per packet, and a shared-CPU box would see every face's
// reader degrade.
//
// Instead, Interests whose enforcement decision requires a signature
// check are *parked* here, PIT-style — the job keeps the arrival face
// and the Interest (with its nonce) so the eventual verdict is sent
// exactly where the request came from — and a fixed pool of workers
// drains the queues. Admission is budgeted per face: parked + in-flight
// jobs for one arrival face may not exceed the budget, and a face over
// budget is shed explicitly with a NACK carrying core.ErrOverload (wire
// reason code, counted under MetricVerifySheds) rather than silently
// dropped. Workers pick faces round-robin, so a flooding face that
// stays within its budget still cannot starve the other faces' parked
// work.
//
// Parked jobs are flushed — with best-effort NACKs — when their face
// dies, when their tag is revoked by a control push, and on forwarder
// shutdown, so nothing leaks and no client waits out a PIT lifetime
// for a verdict that can never come.

// faceVerifyQueue is one face's admission queue.
type faceVerifyQueue struct {
	jobs     []*pipeline.Job
	inflight int
}

// verifyPool is the bounded worker pool.
type verifyPool struct {
	f *Forwarder
	// budget caps parked+in-flight jobs per arrival face; 0 disables
	// admission (used by the DisableAdmission ablation — parking is
	// still asynchronous, only the cap is gone).
	budget int

	mu     sync.Mutex
	cond   *sync.Cond
	queues map[ndn.FaceID]*faceVerifyQueue
	// order is the round-robin rotation over faces that currently have
	// a queue; rr is the next index to scan from.
	order  []ndn.FaceID
	rr     int
	closed bool

	parked  atomic.Int64
	sheds   atomic.Uint64
	flushed atomic.Uint64

	wg sync.WaitGroup
}

func newVerifyPool(f *Forwarder, workers, budget int) *verifyPool {
	p := &verifyPool{f: f, budget: budget, queues: make(map[ndn.FaceID]*faceVerifyQueue)}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	return p
}

// admit parks a job against its arrival face's budget. It returns false
// — and the caller must shed with an Overload NACK — when the face is
// over budget or the pool is shutting down.
func (p *verifyPool) admit(job *pipeline.Job) bool {
	id := job.From
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.sheds.Add(1)
		return false
	}
	q := p.queues[id]
	if q == nil {
		q = &faceVerifyQueue{}
		p.queues[id] = q
		p.order = append(p.order, id)
	}
	if p.budget > 0 && len(q.jobs)+q.inflight >= p.budget {
		p.mu.Unlock()
		p.sheds.Add(1)
		return false
	}
	q.jobs = append(q.jobs, job)
	p.parked.Add(1)
	p.mu.Unlock()
	p.cond.Signal()
	return true
}

// next pops one job round-robin across faces. It blocks until a job is
// available or the pool closes (nil).
func (p *verifyPool) next() *pipeline.Job {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closed {
			return nil
		}
		for scanned := 0; scanned < len(p.order); scanned++ {
			idx := (p.rr + scanned) % len(p.order)
			q := p.queues[p.order[idx]]
			if len(q.jobs) == 0 {
				continue
			}
			job := q.jobs[0]
			q.jobs = q.jobs[1:]
			q.inflight++
			p.parked.Add(-1)
			p.rr = (idx + 1) % len(p.order)
			return job
		}
		p.cond.Wait()
	}
}

// release retires a job's in-flight slot and garbage-collects its
// face's queue entry when idle.
func (p *verifyPool) release(job *pipeline.Job) {
	id := job.From
	p.mu.Lock()
	if q := p.queues[id]; q != nil {
		q.inflight--
		if q.inflight == 0 && len(q.jobs) == 0 {
			delete(p.queues, id)
			for i, fid := range p.order {
				if fid == id {
					p.order = append(p.order[:i], p.order[i+1:]...)
					if p.rr > i {
						p.rr--
					}
					break
				}
			}
			if len(p.order) > 0 {
				p.rr %= len(p.order)
			} else {
				p.rr = 0
			}
		}
	}
	p.mu.Unlock()
}

func (p *verifyPool) worker() {
	defer p.wg.Done()
	for {
		job := p.next()
		if job == nil {
			return
		}
		p.run(job)
		p.release(job)
	}
}

// run completes a parked job's verification and resumes its pipeline.
// It executes on a worker goroutine — never on a face reader.
func (p *verifyPool) run(job *pipeline.Job) {
	parkDur := time.Since(job.Parked)
	p.f.m.observeParkTime(parkDur)
	span(job.Span).EventDur("parked", parkDur, "")
	p.f.pipe.Resume(job)
}

// flushWhere removes parked jobs matching keep==true and NACKs each
// with the given reason (best-effort: the face may already be gone).
// In-flight jobs are not touched — their verdicts land normally.
func (p *verifyPool) flushWhere(match func(*pipeline.Job) bool, reason error) int {
	var out []*pipeline.Job
	p.mu.Lock()
	for id, q := range p.queues {
		kept := q.jobs[:0]
		for _, job := range q.jobs {
			if match(job) {
				out = append(out, job)
			} else {
				kept = append(kept, job)
			}
		}
		q.jobs = kept
		if len(q.jobs) == 0 && q.inflight == 0 {
			delete(p.queues, id)
		}
	}
	// Rebuild the rotation over the surviving queues.
	p.order = p.order[:0]
	for id := range p.queues {
		p.order = append(p.order, id)
	}
	p.rr = 0
	p.parked.Add(int64(-len(out)))
	p.mu.Unlock()
	for _, job := range out {
		p.flushed.Add(1)
		p.f.pipe.Deny(job, reason)
	}
	return len(out)
}

// flushFace flushes every job parked for one arrival face (face
// death). The NACKs are best-effort sends into a closing connection.
func (p *verifyPool) flushFace(id ndn.FaceID, reason error) int {
	return p.flushWhere(func(j *pipeline.Job) bool { return j.From == id }, reason)
}

// shutdown stops the workers (in-flight verifies complete and deliver
// their verdicts), then flushes every still-parked job with an Overload
// NACK. Callers must invoke it while faces are still attached so the
// flush NACKs can reach clients.
func (p *verifyPool) shutdown() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
	p.flushWhere(func(*pipeline.Job) bool { return true }, core.ErrOverload)
}

// Sheds returns the number of Interests shed over budget.
func (p *verifyPool) Sheds() uint64 { return p.sheds.Load() }

// Parked returns the number of Interests currently parked.
func (p *verifyPool) Parked() int64 { return p.parked.Load() }

// Flushed returns the number of parked Interests flushed with NACKs.
func (p *verifyPool) Flushed() uint64 { return p.flushed.Load() }
