package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/par"
	"repro/internal/primaldual"
)

// Exchange is the bulk-synchronous allgather of a distributed solve, built on
// an unreliable Transport. Each barrier: publish this shard's frame to every
// peer, collect one frame per peer for the same barrier (deduplicating
// duplicates and retransmissions by sender), and return the full set. Lost
// frames are recovered by NACK — after a timeout the shard re-requests every
// missing peer's frame and re-offers its own; a peer that stays silent
// through every retry turns into an explicit error, never a partial barrier.
//
// One Exchange serves one solve (one SolveID). Frames for other solves are
// ignored, so a stale shard replaying an old solve cannot corrupt a new one.
type Exchange struct {
	tr      Transport
	seqs    *seqSource
	solveID uint64
	n, self int
	timeout time.Duration
	retries int
	trace   uint64       // stamped on every outbound frame; zero = untraced
	tracer  par.Tracer   // receives one "barrier" event per completed exchange
	nacks   atomic.Int64 // NACK frames sent after a barrier timeout

	mu       sync.Mutex
	barriers map[int32]*barrier
	sent     map[int32][]byte // own encoded RoundBody, for NACK retransmits
}

type barrier struct {
	frames []*primaldual.ExchangeFrame
	need   int
	done   chan struct{}
}

// DefaultExchangeTimeout is the per-attempt wait before NACKing missing
// peers; DefaultExchangeRetries bounds the attempts before failing loudly.
const (
	DefaultExchangeTimeout = 2 * time.Second
	DefaultExchangeRetries = 5
)

// NewExchange builds the allgather for one solve. timeout/retries ≤ 0 take
// the defaults. The caller must route inbound FrameRound and FrameNack
// frames to HandleFrame (the node dispatcher does; tests may wire
// tr.SetHandler straight to it).
func NewExchange(tr Transport, seqs *seqSource, solveID uint64, timeout time.Duration, retries int) *Exchange {
	if timeout <= 0 {
		timeout = DefaultExchangeTimeout
	}
	if retries <= 0 {
		retries = DefaultExchangeRetries
	}
	return &Exchange{
		tr:       tr,
		seqs:     seqs,
		solveID:  solveID,
		n:        tr.N(),
		self:     tr.Self(),
		timeout:  timeout,
		retries:  retries,
		barriers: make(map[int32]*barrier),
		sent:     make(map[int32][]byte),
	}
}

// SetTrace attaches a trace id — stamped on every outbound frame so peers
// can stitch the solve's frames into one cross-shard trace — and an optional
// tracer that receives one "barrier" TraceEvent per completed exchange.
// Call before the solve starts; the fields are read without locking.
func (e *Exchange) SetTrace(id uint64, tr par.Tracer) {
	e.trace = id
	e.tracer = tr
}

// bar returns the barrier record for index, creating it on first touch —
// either side can get there first (a fast peer's frame for barrier k+1 can
// arrive before this shard calls Exchange for it).
func (e *Exchange) bar(index int32) *barrier {
	b := e.barriers[index]
	if b == nil {
		b = &barrier{frames: make([]*primaldual.ExchangeFrame, e.n), need: e.n, done: make(chan struct{})}
		e.barriers[index] = b
	}
	return b
}

// deposit records shard from's frame for its barrier; duplicates are no-ops.
func (e *Exchange) deposit(from int, f *primaldual.ExchangeFrame) {
	e.mu.Lock()
	defer e.mu.Unlock()
	b := e.bar(f.Index)
	if b.frames[from] != nil {
		return
	}
	b.frames[from] = f
	b.need--
	if b.need == 0 {
		close(b.done)
	}
}

// HandleFrame consumes an inbound FrameRound or FrameNack. Frames of other
// types or for other solves are ignored.
func (e *Exchange) HandleFrame(f *Frame) {
	if f == nil || f.From < 0 || int(f.From) >= e.n {
		return
	}
	switch f.Type {
	case FrameRound:
		rb, err := DecodeRoundBody(f.Body)
		if err != nil {
			return
		}
		e.handleRound(int(f.From), rb)
	case FrameNack:
		nb, err := DecodeNackBody(f.Body)
		if err != nil || nb.SolveID != e.solveID {
			return
		}
		e.mu.Lock()
		body := e.sent[nb.Index]
		e.mu.Unlock()
		// Nothing to retransmit means this shard has not reached that barrier
		// yet; its frame will be broadcast when it does.
		if body != nil {
			e.send(int(f.From), FrameRound, body)
		}
	}
}

// handleRound deposits a decoded round body from shard from, ignoring other
// solves and out-of-range senders.
func (e *Exchange) handleRound(from int, rb *RoundBody) {
	if rb.SolveID != e.solveID || from < 0 || from >= e.n {
		return
	}
	e.deposit(from, &rb.Frame)
}

// Nacks reports how many NACK frames this exchange has sent after a barrier
// timeout.
func (e *Exchange) Nacks() int64 { return e.nacks.Load() }

// send stamps and ships one frame; fresh seq per physical send so the fault
// fabric flips fresh coins for retransmissions. Errors are dropped here —
// the barrier's timeout/NACK/fail-loud ladder is the recovery path.
func (e *Exchange) send(to int, typ FrameType, body []byte) {
	_ = e.tr.Send(to, &Frame{Type: typ, From: int32(e.self), Seq: e.seqs.next(), Trace: e.trace, Body: body})
}

// Exchange implements primaldual.Exchanger.
func (e *Exchange) Exchange(ctx context.Context, f *primaldual.ExchangeFrame) ([]*primaldual.ExchangeFrame, error) {
	body := EncodeRoundBody(&RoundBody{SolveID: e.solveID, Frame: *f})
	e.mu.Lock()
	e.sent[f.Index] = body
	e.mu.Unlock()
	e.deposit(e.self, f)
	for p := 0; p < e.n; p++ {
		if p != e.self {
			e.send(p, FrameRound, body)
		}
	}

	e.mu.Lock()
	b := e.bar(f.Index)
	e.mu.Unlock()
	nack := EncodeNackBody(&NackBody{SolveID: e.solveID, Index: f.Index})
	timer := time.NewTimer(e.timeout)
	defer timer.Stop()
	for attempt := 0; ; attempt++ {
		select {
		case <-b.done:
			e.mu.Lock()
			out := make([]*primaldual.ExchangeFrame, e.n)
			copy(out, b.frames)
			e.mu.Unlock()
			if e.tracer != nil {
				e.tracer.Emit(par.TraceEvent{
					Solver: "exchange", Phase: "barrier", Round: int(f.Index),
					Opened: len(f.Opened), Live: int64(len(f.Freezes)),
					Bytes: len(body),
				})
			}
			return out, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-timer.C:
			e.mu.Lock()
			var missing []int
			for p, rf := range b.frames {
				if rf == nil {
					missing = append(missing, p)
				}
			}
			e.mu.Unlock()
			if len(missing) == 0 {
				// Lost the race with the last deposit; loop around.
				timer.Reset(0)
				continue
			}
			if attempt >= e.retries {
				return nil, fmt.Errorf("cluster: shard %d: no frame from shards %v for barrier %d after %d attempts",
					e.self, missing, f.Index, attempt+1)
			}
			// Re-request their frames and re-offer ours: either side's loss
			// is repaired by one round trip.
			e.nacks.Add(int64(len(missing)))
			for _, p := range missing {
				e.send(p, FrameNack, nack)
				e.send(p, FrameRound, body)
			}
			timer.Reset(e.timeout)
		}
	}
}
