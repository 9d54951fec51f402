package problem

import (
	"fmt"
	"io"
	"os"
	"strconv"
)

// WriteInstance emits in in the text format accepted by ParseInstance.
func WriteInstance(w io.Writer, in *Instance) error {
	tw := newTextWriter(w)
	tw.buf = append(tw.buf, "# instance "...)
	tw.buf = append(tw.buf, in.Name...)
	tw.buf = append(tw.buf, '\n')
	tw.ints(in.G.NumVertices(), in.G.NumEdges(), len(in.Nets), len(in.Groups))
	for _, e := range in.G.Edges() {
		tw.ints(e.U, e.V)
	}
	for i := range in.Nets {
		tw.list(in.Nets[i].Terminals)
	}
	for gi := range in.Groups {
		tw.list(in.Groups[gi].Nets)
	}
	return tw.flush()
}

// SaveInstance writes in to path.
func SaveInstance(path string, in *Instance) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteInstance(f, in); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// The solution text format lists, for every net, its routed edges with their
// TDM ratios:
//
//	<numNets>
//	k e1 r1 e2 r2 ... ek rk     (numNets lines; k may be 0)
//
// e are 0-based edge ids of the instance graph; r are the (even, positive)
// legalized TDM ratios. It is the machine-checkable equivalent of the
// contest output format and is what cmd/eval verifies.

// WriteSolution emits sol in the text format accepted by ParseSolution.
func WriteSolution(w io.Writer, sol *Solution) error {
	tw := newTextWriter(w)
	tw.ints(len(sol.Routes))
	for n, edges := range sol.Routes {
		tw.int(int64(len(edges)))
		for k, e := range edges {
			tw.buf = append(tw.buf, ' ')
			tw.int(int64(e))
			tw.buf = append(tw.buf, ' ')
			tw.int(sol.Assign.Ratios[n][k])
		}
		tw.endLine()
	}
	return tw.flush()
}

// SaveSolution writes sol to path.
func SaveSolution(path string, sol *Solution) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteSolution(f, sol); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ParseSolution reads a solution in the format produced by WriteSolution.
// numEdges bounds the edge ids; pass the instance's edge count. A net may
// not route the same edge twice, and ratios must be non-negative (zero is
// the WriteRouting placeholder for "topology only"; full legality is
// ValidateSolution's job). Every parse failure is a *ParseError carrying
// the input line and the offending token.
func ParseSolution(r io.Reader, numEdges int) (*Solution, error) {
	tr := newTokenReader(r)
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
	// Edge lists and ratio lists are carved out of shared slabs. A repeat
	// is an edge already stamped with this net's number; the stamps cover
	// the largest edge id seen so far, not numEdges, so the allocation
	// follows the data.
	var edges slab[int]
	var ratios slab[int64]
	var stamp []int32
	for n := 0; n < nn; n++ {
		k, err := tr.Int()
		if err != nil {
			return nil, fmt.Errorf("problem: solution net %d: %w", n, err)
		}
		if k < 0 || k > numEdges {
			return nil, fmt.Errorf("problem: solution net %d: %w", n, tr.fail("edge count %d outside [0,%d]", k, numEdges))
		}
		for j := 0; j < k; j++ {
			e, err := tr.Int()
			if err != nil {
				return nil, fmt.Errorf("problem: solution net %d edge %d: %w", n, j, err)
			}
			if e < 0 || e >= numEdges {
				return nil, fmt.Errorf("problem: solution net %d: %w", n, tr.fail("edge id %d out of range", e))
			}
			if e >= len(stamp) {
				stamp = append(stamp, make([]int32, min(max(e+1, 2*len(stamp)), numEdges)-len(stamp))...)
			}
			if stamp[e] == int32(n+1) {
				return nil, fmt.Errorf("problem: solution net %d: %w", n, tr.fail("duplicate edge id %d", e))
			}
			stamp[e] = int32(n + 1)
			rr, err := tr.Int()
			if err != nil {
				return nil, fmt.Errorf("problem: solution net %d ratio %d: %w", n, j, err)
			}
			if rr < 0 {
				return nil, fmt.Errorf("problem: solution net %d: %w", n, tr.fail("negative ratio %d", rr))
			}
			edges.push(e)
			ratios.push(int64(rr))
		}
		sol.Routes = append(sol.Routes, edges.cut())
		sol.Assign.Ratios = append(sol.Assign.Ratios, ratios.cut())
	}
	return sol, nil
}

// LoadSolution reads a solution file from path.
func LoadSolution(path string, numEdges int) (*Solution, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseSolution(f, numEdges)
}

// WriteRouting emits only the topology (ratios written as 0) so that routing
// stages can exchange topologies with the TDM assigner, mirroring the
// paper's "read in the routing topologies of the top three winners"
// experiment.
func WriteRouting(w io.Writer, routes Routing) error {
	sol := &Solution{Routes: routes, Assign: Assignment{Ratios: make([][]int64, len(routes))}}
	for n := range routes {
		sol.Assign.Ratios[n] = make([]int64, len(routes[n]))
	}
	return WriteSolution(w, sol)
}

// ParseRouting reads a topology written by WriteRouting (ratios ignored).
func ParseRouting(r io.Reader, numEdges int) (Routing, error) {
	sol, err := ParseSolution(r, numEdges)
	if err != nil {
		return nil, err
	}
	return sol.Routes, nil
}

// textWriter renders the text formats: integers are appended to one byte
// buffer, which is handed to the underlying writer whenever a line ends
// past flushAt bytes.
type textWriter struct {
	w   io.Writer
	buf []byte
	err error
}

const flushAt = 64 << 10

func newTextWriter(w io.Writer) *textWriter {
	return &textWriter{w: w, buf: make([]byte, 0, flushAt+4<<10)}
}

func (tw *textWriter) int(v int64) { tw.buf = strconv.AppendInt(tw.buf, v, 10) }

// ints writes one line of space-separated values.
func (tw *textWriter) ints(vs ...int) {
	for i, v := range vs {
		if i > 0 {
			tw.buf = append(tw.buf, ' ')
		}
		tw.int(int64(v))
	}
	tw.endLine()
}

// list writes a counted line: len(vs) followed by the values.
func (tw *textWriter) list(vs []int) {
	tw.int(int64(len(vs)))
	for _, v := range vs {
		tw.buf = append(tw.buf, ' ')
		tw.int(int64(v))
	}
	tw.endLine()
}

func (tw *textWriter) endLine() {
	tw.buf = append(tw.buf, '\n')
	if len(tw.buf) >= flushAt {
		tw.flush()
	}
}

// flush hands the buffer to w and returns the first write error.
func (tw *textWriter) flush() error {
	if tw.err == nil && len(tw.buf) > 0 {
		var n int
		n, tw.err = tw.w.Write(tw.buf)
		if tw.err == nil && n < len(tw.buf) {
			tw.err = io.ErrShortWrite
		}
	}
	tw.buf = tw.buf[:0]
	return tw.err
}
