package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
)

// spanKind names the layer boundary a span was recorded at. Every span is
// recorded in this package, around a call into Meerkat's public API; no span
// comes from inside the program.
type spanKind uint8

const (
	// spanRun covers one Client.Run call, retries included. It is the root
	// of a transaction's spans.
	spanRun spanKind = iota
	// spanBody covers one execution of the transaction body Run calls.
	spanBody
	// spanReadMany covers one Txn.ReadMany call inside a body.
	spanReadMany
)

var spanNames = [...]string{spanRun: "meerkat.run", spanBody: "meerkat.body", spanReadMany: "meerkat.read_many"}

// span is one timed interval. Spans of one transaction share txn; parent is
// the index, in the same log, of the span that caused this one (-1 for a
// root). Times are nanoseconds since the run's time base.
type span struct {
	txn        int32
	parent     int32
	kind       spanKind
	start, end int64
}

// spanLog is one worker's spans, in recording order. A worker records only
// its own transactions, so a log needs no locking.
type spanLog struct {
	spans []span
}

// open appends a span that starts now and returns its index; close sets its
// end.
func (l *spanLog) open(txn, parent int32, kind spanKind, now int64) int32 {
	l.spans = append(l.spans, span{txn: txn, parent: parent, kind: kind, start: now})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) close(i int32, now int64) { l.spans[i].end = now }

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if lo < hi {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, reach int64
		reach = s.start
		for _, iv := range ivs {
			lo := max(iv[0], reach)
			if iv[1] > lo {
				covered += iv[1] - lo
				reach = iv[1]
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// runSplit is one Run call taken apart along its body executions.
type runSplit struct {
	total    int64 // Run entry to return
	readMany int64 // summed ReadMany spans of every body
	// commit is the last body's return to Run's return: the commit of the
	// attempt that decided the call.
	commit int64
	// retryWait is every gap from one body's return to the next body's
	// entry: the aborted attempt's commit plus Run's backoff.
	retryWait int64
	// readManyCalls lists each ReadMany duration, for percentiles.
	readManyCalls []int64
	bodies        int
}

// splitRuns takes every spanRun root in spans apart. Bodies are ordered by
// start time, so the split does not depend on recording order.
func splitRuns(spans []span) []runSplit {
	bodies := make(map[int32][]int32)
	reads := make(map[int32][]int32)
	for i, s := range spans {
		switch s.kind {
		case spanBody:
			bodies[s.parent] = append(bodies[s.parent], int32(i))
		case spanReadMany:
			reads[s.parent] = append(reads[s.parent], int32(i))
		}
	}
	var out []runSplit
	for i, s := range spans {
		if s.kind != spanRun {
			continue
		}
		r := runSplit{total: s.end - s.start}
		bs := bodies[int32(i)]
		sort.Slice(bs, func(a, b int) bool { return spans[bs[a]].start < spans[bs[b]].start })
		r.bodies = len(bs)
		for k, b := range bs {
			for _, rm := range reads[b] {
				d := spans[rm].end - spans[rm].start
				r.readMany += d
				r.readManyCalls = append(r.readManyCalls, d)
			}
			if k+1 < len(bs) {
				r.retryWait += spans[bs[k+1]].start - spans[b].end
			} else {
				r.commit = s.end - spans[b].end
			}
		}
		out = append(out, r)
	}
	return out
}

// writeSpans writes every span of logs, with its self time, as CSV.
func writeSpans(path string, logs []*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "worker,id,parent,txn,name,start_ns,end_ns,self_ns")
	for wi, l := range logs {
		self := selfTimes(l.spans)
		for i, s := range l.spans {
			fmt.Fprintf(w, "%d,%d,%d,%d,%s,%d,%d,%d\n", wi, i, s.parent, s.txn, spanNames[s.kind], s.start, s.end, self[i])
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
