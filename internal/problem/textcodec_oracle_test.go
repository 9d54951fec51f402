package problem

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"tdmroute/internal/graph"
)

// The text codec as it was before the tokenizer read its own window and the
// writers appended into one buffer: a bufio.Reader read byte by byte, two
// allocations per token, a map and two slices per list, and a bufio.Writer
// fed Itoa strings. It is kept verbatim, renamed, as the oracle the current
// codec must match value for value, error for error and byte for byte.

// oracleParseInstance reads an instance from r. name is attached for reporting.
func oracleParseInstance(name string, r io.Reader) (*Instance, error) {
	tr := newOracleTokenReader(r)
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

	nets := make([]Net, 0, capHint(nn))
	for i := 0; i < nn; i++ {
		k, err := tr.Int()
		if err != nil {
			return nil, fmt.Errorf("problem: net %d: %w", i, err)
		}
		if k < 1 || k > maxDeclared {
			return nil, fmt.Errorf("problem: net %d: %w", i, tr.fail("bad terminal count %d", k))
		}
		terms := make([]int, 0, capHint(k))
		seen := make(map[int]bool, capHint(k))
		for j := 0; j < k; j++ {
			t, err := tr.Int()
			if err != nil {
				return nil, fmt.Errorf("problem: net %d terminal %d: %w", i, j, err)
			}
			if t < 0 || t >= nv {
				return nil, fmt.Errorf("problem: net %d: %w", i, tr.fail("terminal %d out of range", t))
			}
			if seen[t] {
				return nil, fmt.Errorf("problem: net %d: %w", i, tr.fail("duplicate terminal %d", t))
			}
			seen[t] = true
			terms = append(terms, t)
		}
		nets = append(nets, Net{Terminals: terms})
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
		members := make([]int, 0, capHint(m))
		seen := make(map[int]bool, capHint(m))
		for j := 0; j < m; j++ {
			n, err := tr.Int()
			if err != nil {
				return nil, fmt.Errorf("problem: group %d member %d: %w", gi, j, err)
			}
			if n < 0 || n >= nn {
				return nil, fmt.Errorf("problem: group %d: %w", gi, tr.fail("net %d out of range", n))
			}
			if seen[n] {
				return nil, fmt.Errorf("problem: group %d: %w", gi, tr.fail("duplicate member net %d", n))
			}
			seen[n] = true
			members = append(members, n)
		}
		sort.Ints(members)
		groups = append(groups, Group{Nets: members})
	}

	in := &Instance{Name: name, G: g, Nets: nets, Groups: groups}
	in.RebuildNetGroups()
	return in, nil
}

// oracleParseSolution reads a solution in the format produced by oracleWriteSolution.
// numEdges bounds the edge ids; pass the instance's edge count. A net may
// not route the same edge twice, and ratios must be non-negative (zero is
// the WriteRouting placeholder for "topology only"; full legality is
// ValidateSolution's job). Every parse failure is a *ParseError carrying
// the input line and the offending token.
func oracleParseSolution(r io.Reader, numEdges int) (*Solution, error) {
	tr := newOracleTokenReader(r)
	nn, err := tr.Int()
	if err != nil {
		return nil, fmt.Errorf("problem: solution header: %w", err)
	}
	const maxDeclared = 1 << 22
	if nn < 0 || nn > maxDeclared {
		return nil, fmt.Errorf("problem: solution header: %w", tr.fail("bad net count %d", nn))
	}
	sol := &Solution{
		Routes: make(Routing, 0, capHint(nn)),
		Assign: Assignment{Ratios: make([][]int64, 0, capHint(nn))},
	}
	for n := 0; n < nn; n++ {
		k, err := tr.Int()
		if err != nil {
			return nil, fmt.Errorf("problem: solution net %d: %w", n, err)
		}
		if k < 0 || k > numEdges {
			return nil, fmt.Errorf("problem: solution net %d: %w", n, tr.fail("edge count %d outside [0,%d]", k, numEdges))
		}
		edges := make([]int, k)
		ratios := make([]int64, k)
		seen := make(map[int]bool, capHint(k))
		for j := 0; j < k; j++ {
			e, err := tr.Int()
			if err != nil {
				return nil, fmt.Errorf("problem: solution net %d edge %d: %w", n, j, err)
			}
			if e < 0 || e >= numEdges {
				return nil, fmt.Errorf("problem: solution net %d: %w", n, tr.fail("edge id %d out of range", e))
			}
			if seen[e] {
				return nil, fmt.Errorf("problem: solution net %d: %w", n, tr.fail("duplicate edge id %d", e))
			}
			seen[e] = true
			rr, err := tr.Int()
			if err != nil {
				return nil, fmt.Errorf("problem: solution net %d ratio %d: %w", n, j, err)
			}
			if rr < 0 {
				return nil, fmt.Errorf("problem: solution net %d: %w", n, tr.fail("negative ratio %d", rr))
			}
			edges[j] = e
			ratios[j] = int64(rr)
		}
		sol.Routes = append(sol.Routes, edges)
		sol.Assign.Ratios = append(sol.Assign.Ratios, ratios)
	}
	return sol, nil
}

// oracleWriteInstance emits in in the text format accepted by oracleParseInstance.
func oracleWriteInstance(w io.Writer, in *Instance) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintf(bw, "# instance %s\n", in.Name)
	fmt.Fprintf(bw, "%d %d %d %d\n", in.G.NumVertices(), in.G.NumEdges(), len(in.Nets), len(in.Groups))
	for _, e := range in.G.Edges() {
		oracleWriteInts(bw, e.U, e.V)
	}
	for i := range in.Nets {
		terms := in.Nets[i].Terminals
		bw.WriteString(strconv.Itoa(len(terms)))
		for _, t := range terms {
			bw.WriteByte(' ')
			bw.WriteString(strconv.Itoa(t))
		}
		bw.WriteByte('\n')
	}
	for gi := range in.Groups {
		members := in.Groups[gi].Nets
		bw.WriteString(strconv.Itoa(len(members)))
		for _, n := range members {
			bw.WriteByte(' ')
			bw.WriteString(strconv.Itoa(n))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// oracleWriteSolution emits sol in the text format accepted by oracleParseSolution.
func oracleWriteSolution(w io.Writer, sol *Solution) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintf(bw, "%d\n", len(sol.Routes))
	for n, edges := range sol.Routes {
		bw.WriteString(strconv.Itoa(len(edges)))
		for k, e := range edges {
			bw.WriteByte(' ')
			bw.WriteString(strconv.Itoa(e))
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatInt(sol.Assign.Ratios[n][k], 10))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

func oracleWriteInts(bw *bufio.Writer, a, b int) {
	bw.WriteString(strconv.Itoa(a))
	bw.WriteByte(' ')
	bw.WriteString(strconv.Itoa(b))
	bw.WriteByte('\n')
}

// oracleTokenReader scans whitespace-separated integer tokens, skipping '#'
// comments to end of line. It remembers the line and text of the most
// recent token so semantic errors (range, duplicates) can point at it.
type oracleTokenReader struct {
	r       *bufio.Reader
	line    int
	tokLine int    // line on which the last token started
	lastTok string // text of the last token, "" before the first read
}

func newOracleTokenReader(r io.Reader) *oracleTokenReader {
	return &oracleTokenReader{r: bufio.NewReaderSize(r, 1<<20), line: 1, tokLine: 1}
}

// fail builds a ParseError located at the most recently read token.
func (tr *oracleTokenReader) fail(format string, args ...interface{}) *ParseError {
	return &ParseError{Line: tr.tokLine, Token: tr.lastTok, Msg: fmt.Sprintf(format, args...)}
}

// Int returns the next integer token.
func (tr *oracleTokenReader) Int() (int, error) {
	tok, err := tr.token()
	if err != nil {
		return 0, err
	}
	v, err := strconv.Atoi(tok)
	if err != nil {
		return 0, &ParseError{Line: tr.tokLine, Token: tok, Msg: "bad integer", Err: err}
	}
	return v, nil
}

func (tr *oracleTokenReader) token() (string, error) {
	// Skip whitespace and comments.
	for {
		b, err := tr.r.ReadByte()
		if err != nil {
			return "", &ParseError{Line: tr.line, Msg: "unexpected end of input", Err: err}
		}
		switch {
		case b == '\n':
			tr.line++
		case b == ' ' || b == '\t' || b == '\r':
			// skip
		case b == '#':
			if _, err := tr.r.ReadString('\n'); err != nil {
				if err == io.EOF {
					return "", &ParseError{Line: tr.line, Msg: "unexpected end of input", Err: io.EOF}
				}
				return "", err
			}
			tr.line++
		default:
			// Start of a token.
			tr.tokLine = tr.line
			buf := make([]byte, 1, 16)
			buf[0] = b
			for {
				c, err := tr.r.ReadByte()
				if err == io.EOF {
					tr.lastTok = string(buf)
					return tr.lastTok, nil
				}
				if err != nil {
					return "", err
				}
				if c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '#' {
					if err := tr.r.UnreadByte(); err != nil {
						return "", err
					}
					tr.lastTok = string(buf)
					return tr.lastTok, nil
				}
				buf = append(buf, c)
			}
		}
	}
}

// The oracle differential: both parsers see the same bytes through the same
// reader, and must agree on the value or on the error.

// sameParse fails unless the two outcomes agree: reflect.DeepEqual values
// (nil and empty lists differ), or errors with the same text, the same
// *ParseError fields and the same unwrap chain.
func sameParse(t *testing.T, what string, input []byte, got, want any, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, oracle %v\ninput: %q", what, gotErr, wantErr, clip(input))
	}
	if gotErr == nil {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: value differs from the oracle's\ninput: %q", what, clip(input))
		}
		return
	}
	for g, w := gotErr, wantErr; g != nil || w != nil; g, w = errors.Unwrap(g), errors.Unwrap(w) {
		if g == nil || w == nil || g.Error() != w.Error() || reflect.TypeOf(g) != reflect.TypeOf(w) {
			t.Fatalf("%s: error chain differs at %T %v, oracle %T %v\ninput: %q", what, g, g, w, w, clip(input))
		}
		if gp, ok := g.(*ParseError); ok {
			wp := w.(*ParseError)
			if gp.Line != wp.Line || gp.Token != wp.Token || gp.Msg != wp.Msg {
				t.Fatalf("%s: ParseError %+v, oracle %+v\ninput: %q", what, *gp, *wp, clip(input))
			}
		}
	}
}

func clip(b []byte) []byte {
	if len(b) > 200 {
		return b[:200]
	}
	return b
}

// checkCodec runs both instance parsers and both solution parsers over the
// bytes wrap hands them, and requires every accepted value to re-write to
// the oracle writer's bytes.
func checkCodec(t *testing.T, data []byte, numEdges int, wrap func(io.Reader) io.Reader) {
	t.Helper()
	in, err := ParseInstance("fuzz", wrap(bytes.NewReader(data)))
	oin, oerr := oracleParseInstance("fuzz", wrap(bytes.NewReader(data)))
	sameParse(t, "ParseInstance", data, in, oin, err, oerr)
	if err == nil {
		var got, want bytes.Buffer
		if err := WriteInstance(&got, in); err != nil {
			t.Fatal(err)
		}
		if err := oracleWriteInstance(&want, oin); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteInstance differs from the oracle\ninput: %q", clip(data))
		}
	}
	sol, err := ParseSolution(wrap(bytes.NewReader(data)), numEdges)
	osol, oerr := oracleParseSolution(wrap(bytes.NewReader(data)), numEdges)
	sameParse(t, "ParseSolution", data, sol, osol, err, oerr)
	if err == nil {
		var got, want bytes.Buffer
		if err := WriteSolution(&got, sol); err != nil {
			t.Fatal(err)
		}
		if err := oracleWriteSolution(&want, osol); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteSolution differs from the oracle\ninput: %q", clip(data))
		}
	}
}

func plainReader(r io.Reader) io.Reader { return r }

// oracleSeeds are inputs near the codec's edges: numbers at and past the
// inline-conversion limit, signs, comments at the end of input, CR and
// vertical-tab bytes, nets with no edges.
var oracleSeeds = []string{
	tinyText,
	"",
	"# only a comment",
	"# comment without newline\n2 1 1 1\n0 1\n2 0 1\n1 0 # trailing",
	"2 1 1 1\r\n0 1\r\n2 0 1\r\n1 0\r\n",
	"2 1 1 1\n0 1\n2 0 0\n1 0\n",
	"3 2 2 1\n0 1\n1 2\n2 0 1\n2 1 2\n3 1 0 1\n",
	"+2 1 1 1\n0 1\n2 0 01\n1 -0\n",
	"2 1 1 1\n0 1\n2 0\v1\n1 0\n",
	"999999999999999999 0 0 0",
	"9999999999999999999 0 0 0",
	"-999999999999999999 0 0 0",
	"9223372036854775807 -9223372036854775808 0 0",
	"-9223372036854775809 0 0 0",
	"- 0 0 0",
	"3\n0\n2 0 2 1 4\n1 2 6",
	"2\n1 0 2\n1 0 2 # end",
	"1\n2 1 2 1 4\n",
	"1\n1 0 -2\n",
	"2\n0\n0",
	"1\n1 0 +2\n",
	"1\n1 0 2\x00",
}

func FuzzTextCodecOracle(f *testing.F) {
	for _, s := range oracleSeeds {
		f.Add([]byte(s), 8)
	}
	for seed := int64(0); seed < 4; seed++ {
		var buf bytes.Buffer
		if err := oracleWriteInstance(&buf, randomValidInstance(seed)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), 8)
	}
	f.Fuzz(func(t *testing.T, data []byte, numEdges int) {
		if numEdges < 0 || numEdges > 1<<12 {
			numEdges = 10
		}
		checkCodec(t, data, numEdges, plainReader)
		checkCodec(t, data, numEdges, iotest.OneByteReader)
	})
}

// bigCodecText is an instance and a solution text several tokenizer
// windows long, so tokens, comments and lines straddle refills.
func bigCodecText(t *testing.T) (instance, solution []byte, numEdges int) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	const nv, nn = 40, 12000
	g := graph.New(nv, 2*nv)
	for v := 1; v < nv; v++ {
		g.AddEdge(v, rng.Intn(v))
	}
	for v := 0; v < nv; v++ {
		g.AddEdge(v, (v+7)%nv)
	}
	in := &Instance{Name: "big", G: g, Nets: make([]Net, nn)}
	sol := &Solution{Routes: make(Routing, nn), Assign: Assignment{Ratios: make([][]int64, nn)}}
	for i := range in.Nets {
		in.Nets[i].Terminals = rng.Perm(nv)[:1+rng.Intn(5)]
		k := rng.Intn(6)
		sol.Routes[i] = rng.Perm(g.NumEdges())[:k]
		for range sol.Routes[i] {
			sol.Assign.Ratios[i] = append(sol.Assign.Ratios[i], int64(2*(1+rng.Intn(1<<20))))
		}
	}
	for gi := 0; gi < nn/10; gi++ {
		members := rng.Perm(nn)[:1+rng.Intn(40)]
		sort.Ints(members)
		in.Groups = append(in.Groups, Group{Nets: members})
	}
	in.RebuildNetGroups()
	var ib, sb bytes.Buffer
	if err := oracleWriteInstance(&ib, in); err != nil {
		t.Fatal(err)
	}
	if err := oracleWriteSolution(&sb, sol); err != nil {
		t.Fatal(err)
	}
	// Sprinkle comments and extra blanks between lines.
	sprinkle := func(text []byte) []byte {
		var out bytes.Buffer
		for i, line := range strings.SplitAfter(string(text), "\n") {
			if i%97 == 3 {
				out.WriteString("# " + strings.Repeat("x", rng.Intn(300)) + "\n")
			}
			if i%13 == 5 {
				out.WriteString(" \t\r\n")
			}
			out.WriteString(line)
		}
		return out.Bytes()
	}
	return sprinkle(ib.Bytes()), sprinkle(sb.Bytes()), g.NumEdges()
}

var errBoom = errors.New("boom")

// eofReader hands out its pieces one per Read, each with io.EOF: a reader
// that reports the end of input more than once. A bufio.Reader reports
// each error once and asks the underlying reader again on the next read,
// so an io.EOF that ends a token does not end the input.
type eofReader struct{ pieces [][]byte }

func (r *eofReader) Read(p []byte) (int, error) {
	if len(r.pieces) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.pieces[0])
	if r.pieces[0] = r.pieces[0][n:]; len(r.pieces[0]) == 0 {
		r.pieces = r.pieces[1:]
	}
	return n, io.EOF
}

func repeatedEOF(r io.Reader) io.Reader {
	data, _ := io.ReadAll(r)
	var pieces [][]byte
	for len(data) > 0 {
		k := min(len(data), 7)
		pieces, data = append(pieces, data[:k]), data[k:]
	}
	return &eofReader{pieces: pieces}
}

// stallReader never returns data or an error; bufio gives up on it with
// io.ErrNoProgress, and so must the tokenizer.
type stallReader struct{}

func (stallReader) Read([]byte) (int, error) { return 0, nil }

// TestTextCodecReadersMatchOracle drives both codecs through the iotest
// readers, which deliver the input in odd pieces, with the final bytes
// together with io.EOF, or with a timeout error in the middle, so that the
// refill and error boundaries agree as well as the values.
func TestTextCodecReadersMatchOracle(t *testing.T) {
	big, bigSol, bigEdges := bigCodecText(t)
	if len(big) < 3*64<<10 || len(bigSol) < 3*64<<10 {
		t.Fatalf("texts of %d and %d bytes do not span several windows", len(big), len(bigSol))
	}
	small := [][]byte{[]byte(tinyText), big[:20000], bigSol[:20000]}
	for _, s := range oracleSeeds {
		small = append(small, []byte(s))
	}
	readers := []struct {
		name string
		wrap func(io.Reader) io.Reader
		// short limits a reader to inputs within one tokenizer window:
		// TimeoutReader fails its second Read, which lands at a different
		// offset once the input outgrows the oracle's larger buffer.
		short bool
	}{
		{"plain", plainReader, false},
		{"OneByte", iotest.OneByteReader, false},
		{"Half", iotest.HalfReader, false},
		{"DataErr", iotest.DataErrReader, false},
		{"Timeout", iotest.TimeoutReader, true},
		{"RepeatedEOF", repeatedEOF, false},
	}
	for _, rd := range readers {
		t.Run(rd.name, func(t *testing.T) {
			for _, data := range small {
				checkCodec(t, data, bigEdges, rd.wrap)
				// Truncations at sampled offsets must fail, or succeed,
				// the same way.
				for cut := 1; cut < len(data) && cut < 600; cut += 1 + cut/8 {
					checkCodec(t, data[:cut], bigEdges, rd.wrap)
				}
			}
			if rd.short {
				return
			}
			for _, data := range [][]byte{big, bigSol, big[:len(big)-1], bigSol[:len(bigSol)/2]} {
				checkCodec(t, data, bigEdges, rd.wrap)
			}
		})
	}
	// A read error other than io.EOF: between tokens it becomes the cause
	// of an "unexpected end of input", inside a token or a comment it is
	// returned as is.
	errAfter := func(prefix string) func(io.Reader) io.Reader {
		return func(io.Reader) io.Reader {
			return io.MultiReader(strings.NewReader(prefix), iotest.ErrReader(errBoom))
		}
	}
	for _, prefix := range []string{"", "2 1", "2 1 ", "2 1 1 1\n0 1\n# comment", "1\n1 0 2", "1\n1 0 2\n"} {
		checkCodec(t, nil, 4, errAfter(prefix))
	}
	checkCodec(t, nil, 4, func(io.Reader) io.Reader { return stallReader{} })
	if _, err := ParseInstance("stall", stallReader{}); !errors.Is(err, io.ErrNoProgress) {
		t.Fatalf("stalled reader: %v, want io.ErrNoProgress", err)
	}
}

// TestTextWritersMatchOracle renders instances and solutions larger than
// the writers' chunk through both implementations.
func TestTextWritersMatchOracle(t *testing.T) {
	big, bigSol, bigEdges := bigCodecText(t)
	in, err := oracleParseInstance("big", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := oracleParseSolution(bytes.NewReader(bigSol), bigEdges)
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := WriteInstance(&got, in); err != nil {
		t.Fatal(err)
	}
	if err := oracleWriteInstance(&want, in); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("WriteInstance differs from the oracle")
	}
	got.Reset()
	want.Reset()
	if err := WriteSolution(&got, sol); err != nil {
		t.Fatal(err)
	}
	if err := oracleWriteSolution(&want, sol); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("WriteSolution differs from the oracle")
	}
	// A failing writer's error comes back.
	if err := WriteSolution(failWriter{}, sol); !errors.Is(err, errBoom) {
		t.Fatalf("WriteSolution to a failing writer: %v, want %v", err, errBoom)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errBoom }
