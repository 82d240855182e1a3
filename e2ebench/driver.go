package main

import (
	"fmt"
	"os"
	"sync"
	"time"
)

// ioTimeout bounds any single phase's socket I/O beyond its planned length.
const ioTimeout = 60 * time.Second

// span is one timed interval of one request at a layer boundary. Spans of
// a request share Req; Parent names the enclosing span ("" for a root).
type span struct {
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the trace epoch
	Dur    int64  `json:"dur_ns"`
}

// windowResult is what one closed-loop window measured.
type windowResult struct {
	elapsed   time.Duration
	attempted int
	failed    int
	readLat   []time.Duration
	writeLat  []time.Duration
	rows      int
	// Traced windows only: spans, the trailer execution time of each read,
	// and the sums of trailer time and client latency over all requests.
	spans      []span
	readExecMs []float64
	execSum    time.Duration
	latSum     time.Duration
}

func (w *windowResult) completed() int { return len(w.readLat) + len(w.writeLat) }

func (w *windowResult) qps() float64 {
	return float64(w.completed()) / w.elapsed.Seconds()
}

// failLog reports the first few failures of a run on stderr.
type failLog struct {
	mu sync.Mutex
	n  int
}

func (f *failLog) report(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.n++; f.n <= 5 {
		fmt.Fprintf(os.Stderr, "e2ebench: failed request: %v\n", err)
	}
}

// runWindow drives one stream per connection in a closed loop: each
// connection sends its next request only after the previous reply, until
// dur has passed. With epoch non-zero it records a request span per request and a core.exec
// child taken from the reply's execution-time trailer.
func runWindow(conns []*conn, streams []*stream, dur time.Duration, epoch time.Time, fails *failLog) *windowResult {
	parts := make([]windowResult, len(conns))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, c, st := &parts[i], conns[i], streams[i]
			if err := c.setDeadline(deadline.Add(ioTimeout)); err != nil {
				res.attempted++
				res.failed++
				fails.report(err)
				return
			}
			for n := 0; time.Now().Before(deadline); n++ {
				req := st.next()
				frame := req.frame()
				res.attempted++
				t0 := time.Now()
				v, err := c.do(frame)
				lat := time.Since(t0)
				if err != nil {
					// A dropped connection ends this stream.
					res.failed++
					fails.report(err)
					return
				}
				rows, err := req.check(v)
				res.rows += rows
				if err != nil {
					res.failed++
					fails.report(err)
					continue
				}
				if req.read() {
					res.readLat = append(res.readLat, lat)
				} else {
					res.writeLat = append(res.writeLat, lat)
				}
				if !epoch.IsZero() {
					id := int64(i)<<40 | int64(n)
					res.spans = append(res.spans, span{Req: id, Name: "request", Start: int64(t0.Sub(epoch)), Dur: int64(lat)})
					res.latSum += lat
					if ms, ok := execTime(v); ok {
						exec := time.Duration(ms * 1e6)
						res.execSum += exec
						if req.read() {
							res.readExecMs = append(res.readExecMs, ms)
						}
						// The trailer gives a duration only; the span is
						// placed at the request's start.
						res.spans = append(res.spans, span{Req: id, Name: "core.exec", Parent: "request",
							Start: int64(t0.Sub(epoch)), Dur: int64(exec)})
					}
				}
			}
		}(i)
	}
	wg.Wait()
	out := &windowResult{}
	for i := range parts {
		out.add(&parts[i])
	}
	out.elapsed = time.Since(start)
	return out
}

// add pools p's samples and counts into w, summing elapsed times.
func (w *windowResult) add(p *windowResult) {
	w.elapsed += p.elapsed
	w.attempted += p.attempted
	w.failed += p.failed
	w.rows += p.rows
	w.readLat = append(w.readLat, p.readLat...)
	w.writeLat = append(w.writeLat, p.writeLat...)
	w.spans = append(w.spans, p.spans...)
	w.readExecMs = append(w.readExecMs, p.readExecMs...)
	w.execSum += p.execSum
	w.latSum += p.latSum
}
