package main

import (
	"fmt"
	"sync"

	"tdmroute"
	"tdmroute/internal/exp"
	"tdmroute/internal/problem"
)

// ledger counts attempted and failed operations. An operation fails when
// it returns an error (including an HTTP failure), comes back Degraded,
// fails problem.ValidateSolution, or yields solution bytes whose digest
// differs from the first solve of the same input in the same run. The
// checks run outside the timed region.
type ledger struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string // the first few failure messages
	// digests maps an input key to the SHA-256 of its first solution.
	digests map[string]string
}

func newLedger() *ledger { return &ledger{digests: map[string]string{}} }

// record checks one operation's outcome for input key and returns the
// solution digest ("" when the operation failed).
func (l *ledger) record(key string, in *problem.Instance, resp *tdmroute.Response, err error) string {
	if err == nil && resp.Degraded != nil {
		err = fmt.Errorf("degraded: %v", resp.Degraded)
	}
	if err == nil {
		if verr := problem.ValidateSolution(in, resp.Solution); verr != nil {
			err = fmt.Errorf("invalid solution: %w", verr)
		}
	}
	var digest string
	if err == nil {
		// RowFromResponse digests the contest-format solution bytes.
		row, rerr := exp.RowFromResponse(key, resp, 0)
		err = rerr
		digest = row.SolutionSHA256
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if err == nil {
		if first, ok := l.digests[key]; !ok {
			l.digests[key] = digest
		} else if first != digest {
			err = fmt.Errorf("solution digest %s differs from the first solve's %s", digest[:12], first[:12])
		}
	}
	if err != nil {
		l.failLocked(key, err)
		return ""
	}
	return digest
}

// fail counts an operation that produced no response at all.
func (l *ledger) fail(key string, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	l.failLocked(key, err)
}

func (l *ledger) failLocked(key string, err error) {
	l.failed++
	if len(l.errs) < 10 {
		l.errs = append(l.errs, fmt.Sprintf("%s: %v", key, err))
	}
}

// digest returns the digest of key's first solve ("" if none succeeded).
func (l *ledger) digest(key string) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.digests[key]
}
