package main

import (
	"runtime"
	"sync"
	"time"

	webreason "repro"
	"repro/internal/engine"
)

// clients is the number of requests in flight at most: one per CPU of the
// 2-CPU machine the bounds were set on.
const clients = 2

// spanName names a traced call; the text before the dot is its layer.
type spanName uint8

const (
	spanOp          spanName = iota // the whole operation, on the client
	spanParse                       // ParseQuery
	spanQuery                       // Server.Query
	spanAnswer                      // ServerPrepared.Answer
	spanWrite                       // Session Insert/Delete, durable or not
	spanSessionRead                 // Session.Ask on the primary
	spanPosition                    // Session.Position
	spanReplicaRead                 // Session.Ask on the follower
	spanDecode                      // Result.Decode
)

var spanNames = [...]string{
	"bench.op", "sparql.parse", "server.query", "server.answer", "server.write",
	"server.session_read", "server.position", "replica.session_read", "dict.decode",
}

// span is one traced call. Times are nanoseconds from the window start;
// parent indexes the same worker's spans (-1 for an operation's root), and
// req is the operation's index in the schedule.
type span struct {
	name       spanName
	req        int32
	parent     int32
	start, end int64
}

// opResult is what an operation left for checking after the window.
type opResult struct {
	failed bool
	// check is set for reads whose answer the oracle verifies.
	check    answerCheck
	hasCheck bool
}

// worker is one client: it sends the operations it takes from the schedule,
// one at a time, and keeps its own samples so workers never contend.
type worker struct {
	sys   *system
	in    *inputs
	res   []opResult
	done  []chan struct{}
	sess  *webreason.Session
	fsess *webreason.Session
	// Samples, each timed from the operation's intended send time except
	// the repeated probes of probeIsRead workloads, timed from their own
	// send.
	// Reads are classed by query and by prepared or text form (probes by
	// the write they follow), writes by kind.
	read, write, visible classed
	replica, lag         durations
	errs                 int
	firstErr             error
	traced               bool
	keep                 func([]webreason.Term) bool
	base                 time.Time
	spans                []span
	root                 int32
}

// window is the outcome of one measured window.
type window struct {
	read, write, visible classed
	replica              durations
	// lag is how late each operation a client was waiting for was sent.
	lag     durations
	elapsed time.Duration
	res     []opResult
	spans   [][]span
	errs    int
	// firstErr is the first error an operation met, for the log.
	firstErr error
}

// drive runs the schedule open-loop: each operation is sent at its
// intended time whatever the state of the earlier ones, by whichever of the
// clients workers is free, so a stall delays and is charged to every
// operation queued behind it.
func drive(sys *system, in *inputs, traced bool) *window {
	res := make([]opResult, len(in.ops))
	done := make([]chan struct{}, len(in.batches))
	for i := range done {
		done[i] = make(chan struct{})
	}
	// The queue holds the whole schedule up front; workers take operations
	// in order.
	queue := make(chan int, len(in.ops))
	for i := range in.ops {
		queue <- i
	}
	close(queue)
	// Every window starts right after a collection, so the collector runs
	// at the same points of the schedule in every run.
	runtime.GC()
	start := time.Now().Add(time.Millisecond)
	ws := make([]*worker, clients)
	var wg sync.WaitGroup
	for k := range ws {
		w := &worker{sys: sys, in: in, res: res, done: done, sess: sys.srv.Session(), traced: traced, base: start, keep: sys.sp.keepRow(),
			read: classed{}, write: classed{}, visible: classed{}}
		if sys.fsrv != nil {
			w.fsess = sys.fsrv.Session()
		}
		ws[k] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				// An operation a client had to wait for is timed from when the
				// client woke to send it: a sleep overshoots its deadline by up
				// to a millisecond, and that error is the generator's, kept as
				// send lag. One already due when a client took it waited in the
				// backlog and is timed from its intended send time.
				from := start.Add(in.ops[i].at)
				if wait := time.Until(from); wait > 0 {
					time.Sleep(wait)
					sent := time.Now()
					w.lag = append(w.lag, sent.Sub(from))
					from = sent
				}
				w.do(i, from)
			}
		}()
	}
	wg.Wait()
	win := &window{elapsed: time.Since(start), res: res, read: classed{}, write: classed{}, visible: classed{}}
	for _, w := range ws {
		win.read.merge(w.read)
		win.write.merge(w.write)
		win.visible.merge(w.visible)
		win.replica = append(win.replica, w.replica...)
		win.lag = append(win.lag, w.lag...)
		win.spans = append(win.spans, w.spans)
		win.errs += w.errs
		if win.firstErr == nil {
			win.firstErr = w.firstErr
		}
	}
	return win
}

// child records a call that ran from t0 until now under the operation's
// root span and returns now; untraced, it returns t0 without reading the
// clock.
func (w *worker) child(name spanName, t0 time.Time) time.Time {
	if !w.traced {
		return t0
	}
	now := time.Now()
	w.span(name, t0, now)
	return now
}

// span records a call that ran from t0 to t1 under the operation's root
// span, when tracing.
func (w *worker) span(name spanName, t0, t1 time.Time) {
	if w.traced {
		w.spans = append(w.spans, span{name: name, req: w.spans[w.root].req, parent: w.root,
			start: t0.Sub(w.base).Nanoseconds(), end: t1.Sub(w.base).Nanoseconds()})
	}
}

func (w *worker) fail(err error) bool {
	w.errs++
	if w.firstErr == nil {
		w.firstErr = err
	}
	return true
}

// do sends operation i, due at the given time.
func (w *worker) do(i int, due time.Time) {
	o := &w.in.ops[i]
	t := time.Now()
	if w.traced {
		w.root = int32(len(w.spans))
		w.spans = append(w.spans, span{name: spanOp, req: int32(i), parent: -1, start: t.Sub(w.base).Nanoseconds()})
	}
	var failed bool
	switch o.kind {
	case opPrepared, opText:
		failed = w.doRead(i, o, due, t)
	case opInsert, opDelete:
		failed = w.doWrite(o, due, t)
	}
	w.res[i].failed = failed
	if w.traced {
		w.spans[w.root].end = time.Since(w.base).Nanoseconds()
	}
}

// doRead answers a canonical query through its prepared form, or a
// generated text through ParseQuery and Server.Query, and decodes the rows.
// The answer's fingerprint is kept for the oracle.
func (w *worker) doRead(i int, o *op, due, t time.Time) bool {
	var (
		res  *engine.Result
		err  error
		text string
	)
	if o.kind == opPrepared {
		text = w.in.canon[o.q]
		res, err = w.sys.prep[o.q].Answer()
		t = w.child(spanAnswer, t)
	} else {
		text = w.in.texts[o.text]
		var q *webreason.Query
		if q, err = webreason.ParseQuery(text); err == nil {
			t = w.child(spanParse, t)
			res, err = w.sys.srv.Query(q)
			t = w.child(spanQuery, t)
		}
	}
	if err != nil {
		return w.fail(err)
	}
	rows := res.Decode(w.sys.kb.Dict())
	w.child(spanDecode, t)
	w.read.add(2*o.q+int(o.kind), time.Since(due))
	w.res[i].check = answerCheck{text: text, got: fingerprintRows(res.Vars, rows, w.keep)}
	w.res[i].hasCheck = true
	return false
}

// doWrite inserts a fresh batch, or retracts an earlier one once its insert
// has returned, through the client's session; then it probes the session
// (and, with a follower, a follower session at the primary session's
// position) until the write shows.
func (w *worker) doWrite(o *op, due, t time.Time) bool {
	b := &w.in.batches[o.batch]
	del := o.kind == opDelete
	if del {
		<-w.done[o.batch]
	}
	var err error
	switch {
	case w.sys.sp.durable && del:
		err = w.sess.DeleteDurable(b.ts...)
	case w.sys.sp.durable:
		err = w.sess.InsertDurable(b.ts...)
	case del:
		err = w.sess.Delete(b.ts...)
	default:
		err = w.sess.Insert(b.ts...)
	}
	sent := time.Now()
	w.write.add(int(o.kind), sent.Sub(due))
	w.span(spanWrite, t, sent)
	if !del {
		close(w.done[o.batch])
	}
	if err != nil {
		return w.fail(err)
	}
	ok, err := w.sess.Ask(b.probe)
	seen := time.Now()
	w.span(spanSessionRead, sent, seen)
	if err != nil {
		return w.fail(err)
	}
	w.visible.add(int(o.kind), seen.Sub(due))
	if ok == del {
		return true
	}
	if w.sys.sp.probeIsRead {
		// The first probe's latency depends on whether the ack reached the
		// client before or after the writer applied the batch, which the
		// scheduler decides; the repeat, of a write already visible, times
		// the session read alone.
		ok, err = w.sess.Ask(b.probe)
		now := time.Now()
		w.span(spanSessionRead, seen, now)
		if err != nil {
			return w.fail(err)
		}
		w.read.add(int(o.kind), now.Sub(seen))
		if ok == del {
			return true
		}
		seen = now
	}
	if w.fsess == nil {
		return false
	}
	pos, err := w.sess.Position()
	t = w.child(spanPosition, seen)
	if err != nil {
		return w.fail(err)
	}
	w.fsess.ObservePosition(pos)
	ok, err = w.fsess.Ask(b.probe)
	w.child(spanReplicaRead, t)
	if err != nil {
		return w.fail(err)
	}
	w.replica = append(w.replica, time.Since(due))
	return ok == del
}
