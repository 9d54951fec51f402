package problem

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"tdmroute/internal/graph"
)

// The instance text format mirrors the ICCAD 2019 CAD Contest Problem B
// inputs (which are not redistributable) in a line-oriented form:
//
//	# comment lines and blank lines are ignored anywhere
//	<numFPGAs> <numEdges> <numNets> <numGroups>
//	u v                      (numEdges lines, 0-based FPGA ids)
//	k t1 t2 ... tk           (numNets lines, k >= 1 terminals)
//	m n1 n2 ... nm           (numGroups lines, m >= 1 net ids)
//
// Terminal lists must not repeat an FPGA and group member lists must not
// repeat a net: duplicates are rejected (they always indicate a generator
// bug or a corrupted file, and silently dropping them would change the
// declared counts). Group member lists are sorted on read. Both are
// 0-based. Every parse failure is a *ParseError carrying the input line and
// the offending token.

// ParseInstance reads an instance from r. name is attached for reporting.
func ParseInstance(name string, r io.Reader) (*Instance, error) {
	tr := newTokenReader(r)
	nv, err := tr.Int()
	if err != nil {
		return nil, fmt.Errorf("problem: header: %w", err)
	}
	ne, err := tr.Int()
	if err != nil {
		return nil, fmt.Errorf("problem: header: %w", err)
	}
	nn, err := tr.Int()
	if err != nil {
		return nil, fmt.Errorf("problem: header: %w", err)
	}
	ng, err := tr.Int()
	if err != nil {
		return nil, fmt.Errorf("problem: header: %w", err)
	}
	if nv < 0 || ne < 0 || nn < 0 || ng < 0 {
		return nil, fmt.Errorf("problem: header: %w", tr.fail("negative count in header (%d %d %d %d)", nv, ne, nn, ng))
	}
	// Guard allocation against corrupt or hostile headers: the largest
	// published benchmark is ~10^6 entities; refuse declared sizes that
	// would pre-allocate unreasonable memory before any data is read, and
	// grow all containers incrementally so a lying header costs nothing.
	const maxDeclared = 1 << 22
	if nv > maxDeclared || ne > maxDeclared || nn > maxDeclared || ng > maxDeclared {
		return nil, fmt.Errorf("problem: header: %w", tr.fail("declares unreasonable sizes (%d %d %d %d)", nv, ne, nn, ng))
	}

	g := graph.New(nv, capHint(ne))
	for i := 0; i < ne; i++ {
		u, err := tr.Int()
		if err != nil {
			return nil, fmt.Errorf("problem: edge %d: %w", i, err)
		}
		v, err := tr.Int()
		if err != nil {
			return nil, fmt.Errorf("problem: edge %d: %w", i, err)
		}
		if u < 0 || u >= nv || v < 0 || v >= nv {
			return nil, fmt.Errorf("problem: edge %d: %w", i, tr.fail("endpoint out of range: (%d,%d)", u, v))
		}
		if u == v {
			return nil, fmt.Errorf("problem: edge %d: %w", i, tr.fail("self loop at FPGA %d", u))
		}
		g.AddEdge(u, v)
	}

	// Terminal and member lists are carved out of shared slabs. Duplicates
	// are found by scanning the list read so far while it is short (nets
	// have a handful of terminals) and by a set above that; a slice indexed
	// by vertex would let a lying header force a large allocation.
	var ids slab[int]
	var seen idSet
	nets := make([]Net, 0, capHint(nn))
	for i := 0; i < nn; i++ {
		k, err := tr.Int()
		if err != nil {
			return nil, fmt.Errorf("problem: net %d: %w", i, err)
		}
		if k < 1 || k > maxDeclared {
			return nil, fmt.Errorf("problem: net %d: %w", i, tr.fail("bad terminal count %d", k))
		}
		seen.reset()
		for j := 0; j < k; j++ {
			t, err := tr.Int()
			if err != nil {
				return nil, fmt.Errorf("problem: net %d terminal %d: %w", i, j, err)
			}
			if t < 0 || t >= nv {
				return nil, fmt.Errorf("problem: net %d: %w", i, tr.fail("terminal %d out of range", t))
			}
			if seen.add(ids.pending(), t) {
				return nil, fmt.Errorf("problem: net %d: %w", i, tr.fail("duplicate terminal %d", t))
			}
			ids.push(t)
		}
		nets = append(nets, Net{Terminals: ids.cut()})
	}

	groups := make([]Group, 0, capHint(ng))
	for gi := 0; gi < ng; gi++ {
		m, err := tr.Int()
		if err != nil {
			return nil, fmt.Errorf("problem: group %d: %w", gi, err)
		}
		if m < 1 || m > maxDeclared {
			return nil, fmt.Errorf("problem: group %d: %w", gi, tr.fail("bad member count %d", m))
		}
		seen.reset()
		for j := 0; j < m; j++ {
			n, err := tr.Int()
			if err != nil {
				return nil, fmt.Errorf("problem: group %d member %d: %w", gi, j, err)
			}
			if n < 0 || n >= nn {
				return nil, fmt.Errorf("problem: group %d: %w", gi, tr.fail("net %d out of range", n))
			}
			if seen.add(ids.pending(), n) {
				return nil, fmt.Errorf("problem: group %d: %w", gi, tr.fail("duplicate member net %d", n))
			}
			ids.push(n)
		}
		members := ids.cut()
		sort.Ints(members)
		groups = append(groups, Group{Nets: members})
	}

	in := &Instance{Name: name, G: g, Nets: nets, Groups: groups}
	in.RebuildNetGroups()
	return in, nil
}

// LoadInstance reads an instance from a file, naming it after the path.
func LoadInstance(path string) (*Instance, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseInstance(path, f)
}

// RebuildNetGroups recomputes each net's Groups list from the group member
// lists. Generators and parsers call it after constructing Groups. The
// lists are carved out of one shared array; a net in no group keeps its
// (possibly nil) list truncated to length zero.
func (in *Instance) RebuildNetGroups() {
	counts := make([]int, len(in.Nets))
	total := 0
	for gi := range in.Groups {
		for _, n := range in.Groups[gi].Nets {
			counts[n]++
			total++
		}
	}
	shared := make([]int, total)
	off := 0
	for i := range in.Nets {
		if c := counts[i]; c > 0 {
			in.Nets[i].Groups = shared[off : off : off+c]
			off += c
		} else {
			in.Nets[i].Groups = in.Nets[i].Groups[:0]
		}
	}
	for gi := range in.Groups {
		for _, n := range in.Groups[gi].Nets {
			in.Nets[n].Groups = append(in.Nets[n].Groups, gi)
		}
	}
}

// capHint bounds an initial slice/map capacity taken from untrusted input:
// real data still appends beyond it cheaply, while a lying header cannot
// force a large allocation.
func capHint(n int) int {
	const limit = 1 << 16
	if n > limit {
		return limit
	}
	if n < 0 {
		return 0
	}
	return n
}

// slab carves many short lists out of shared backing arrays, so a parser
// allocates per chunk instead of per list. push appends to the list being
// built and cut ends it. A cut list has its capacity clamped, so appending
// to it reallocates instead of running into its neighbour.
type slab[T int | int64] struct {
	buf   []T
	start int // index of the list being built
}

// Chunks double from slabMin up to slabMax elements: a small input costs
// one small chunk, and a large one wastes at most a list per chunk.
const slabMin, slabMax = 256, 1 << 16

func (s *slab[T]) push(v T) {
	if len(s.buf) == cap(s.buf) {
		n := len(s.buf) - s.start
		next := make([]T, n, max(min(2*cap(s.buf), slabMax), slabMin, 2*n))
		copy(next, s.buf[s.start:])
		s.buf, s.start = next, 0
	}
	s.buf = append(s.buf, v)
}

// pending returns the list being built.
func (s *slab[T]) pending() []T { return s.buf[s.start:] }

// cut ends the list being built and returns it, non-nil even when empty.
func (s *slab[T]) cut() []T {
	if s.buf == nil {
		return []T{}
	}
	l := s.buf[s.start:len(s.buf):len(s.buf)]
	s.start = len(s.buf)
	return l
}

// idSet finds a repeat in one terminal or member list while it is read: by
// scanning the list while it is short, and through a map once it is long.
type idSet struct {
	m      map[int]struct{}
	mapped bool // m holds the current list
}

// scanLimit is the list length up to which a linear scan beats a map.
const scanLimit = 16

func (s *idSet) reset() { s.mapped = false }

// add reports whether v occurs in list, the current list's values so far,
// and otherwise records it.
func (s *idSet) add(list []int, v int) bool {
	if len(list) < scanLimit {
		for _, x := range list {
			if x == v {
				return true
			}
		}
		return false
	}
	if !s.mapped {
		if s.m == nil {
			s.m = make(map[int]struct{}, 2*scanLimit)
		} else {
			clear(s.m)
		}
		for _, x := range list {
			s.m[x] = struct{}{}
		}
		s.mapped = true
	}
	if _, dup := s.m[v]; dup {
		return true
	}
	s.m[v] = struct{}{}
	return false
}

// tokenReader scans whitespace-separated integer tokens, skipping '#'
// comments to end of line. It remembers the line and text of the most
// recent token so semantic errors (range, duplicates) can point at it.
//
// It reads through a window of its own and keeps bufio.Reader's error
// contract: a read error is reported once, after the bytes that came with
// it, and the next read asks the underlying reader again.
type tokenReader struct {
	r        io.Reader
	buf      []byte
	pos, end int   // unread window buf[pos:end]
	err      error // read error not yet reported
	line     int
	tokLine  int // line on which the last token started
	// The last token is buf[tokStart:tokEnd], or spill when it straddled
	// a refill; either stays valid until the next token is read. Indices
	// rather than a slice keep the per-token bookkeeping free of pointer
	// writes.
	tokStart, tokEnd int
	spilled          bool
	spill            []byte
}

// isDelim marks the bytes that end a token.
var isDelim = [256]bool{' ': true, '\t': true, '\r': true, '\n': true, '#': true}

func newTokenReader(r io.Reader) *tokenReader {
	return &tokenReader{r: r, buf: make([]byte, 64<<10), line: 1, tokLine: 1}
}

// more refills the drained window. It returns the pending read error, or
// the one the refill met, when no byte arrived.
func (tr *tokenReader) more() error {
	for tr.pos == tr.end {
		if tr.err != nil {
			err := tr.err
			tr.err = nil
			return err
		}
		tr.pos, tr.end = 0, 0
		// Like bufio, give up on a reader that keeps returning nothing.
		tr.err = io.ErrNoProgress
		for i := 0; i < 100; i++ {
			n, err := tr.r.Read(tr.buf)
			if n < 0 || n > len(tr.buf) {
				panic("problem: reader returned an invalid count")
			}
			tr.end = n
			if n > 0 || err != nil {
				tr.err = err
				break
			}
		}
	}
	return nil
}

// fail builds a ParseError located at the most recently read token.
func (tr *tokenReader) fail(format string, args ...interface{}) *ParseError {
	return &ParseError{Line: tr.tokLine, Token: string(tr.lastTok()), Msg: fmt.Sprintf(format, args...)}
}

// lastTok returns the text of the most recently read token.
func (tr *tokenReader) lastTok() []byte {
	if tr.spilled {
		return tr.spill
	}
	return tr.buf[tr.tokStart:tr.tokEnd]
}

// inlineDigits is the longest digit run that cannot overflow an int.
const inlineDigits = 9 + 9*(strconv.IntSize/64)

// Int returns the next integer token.
func (tr *tokenReader) Int() (int, error) {
	if err := tr.token(); err != nil {
		return 0, err
	}
	tok := tr.lastTok()
	if v, ok := parseDecimal(tok); ok {
		return v, nil
	}
	// Everything else, from "+7" to an overflow, is strconv.Atoi's call.
	s := string(tok)
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, &ParseError{Line: tr.tokLine, Token: s, Msg: "bad integer", Err: err}
	}
	return v, nil
}

// parseDecimal converts a plain decimal token, an optional '-' and one to
// inlineDigits digits, exactly as strconv.Atoi would.
func parseDecimal(tok []byte) (int, bool) {
	digits := tok
	if len(digits) > 0 && digits[0] == '-' {
		digits = digits[1:]
	}
	if len(digits) == 0 || len(digits) > inlineDigits {
		return 0, false
	}
	v := 0
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	if len(digits) < len(tok) {
		v = -v
	}
	return v, true
}

// token reads the next token (see lastTok).
func (tr *tokenReader) token() error {
	// Skip whitespace and comments.
	for {
		if tr.pos == tr.end {
			if err := tr.more(); err != nil {
				return &ParseError{Line: tr.line, Msg: "unexpected end of input", Err: err}
			}
		}
		b := tr.buf[tr.pos]
		tr.pos++
		switch b {
		case '\n':
			tr.line++
		case ' ', '\t', '\r':
		case '#':
			if err := tr.skipLine(); err != nil {
				return err
			}
			tr.line++
		default:
			tr.tokLine = tr.line
			return tr.scanToken(tr.pos - 1)
		}
	}
}

// skipLine consumes the rest of a comment line, its newline included.
func (tr *tokenReader) skipLine() error {
	for {
		if i := bytes.IndexByte(tr.buf[tr.pos:tr.end], '\n'); i >= 0 {
			tr.pos += i + 1
			return nil
		}
		tr.pos = tr.end
		if err := tr.more(); err != nil {
			if err == io.EOF {
				return &ParseError{Line: tr.line, Msg: "unexpected end of input", Err: io.EOF}
			}
			return err
		}
	}
}

// scanToken reads the token starting at buf[start]. The end of input ends
// a token; any other read error fails it.
func (tr *tokenReader) scanToken(start int) error {
	tr.spilled = false
	for {
		i := tr.pos
		for i < tr.end && !isDelim[tr.buf[i]] {
			i++
		}
		tr.pos = i
		if i < tr.end && !tr.spilled {
			// The common case: the token lies within the window.
			tr.tokStart, tr.tokEnd = start, i
			return nil
		}
		// The token straddles a refill: collect it in spill.
		if !tr.spilled {
			tr.spill = tr.spill[:0]
			tr.spilled = true
		}
		tr.spill = append(tr.spill, tr.buf[start:i]...)
		if i < tr.end {
			return nil
		}
		if err := tr.more(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		start = tr.pos
	}
}
