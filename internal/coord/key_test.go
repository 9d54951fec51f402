package coord

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"tdmroute"
	"tdmroute/internal/graph"
	"tdmroute/internal/problem"
	"tdmroute/internal/serve"
)

// keyInstance is a small connected instance built from a seed.
func keyInstance(seed int64) *tdmroute.Instance {
	rng := rand.New(rand.NewSource(seed))
	nv := 3 + rng.Intn(10)
	g := graph.New(nv, 2*nv)
	for v := 1; v < nv; v++ {
		g.AddEdge(v, rng.Intn(v))
	}
	for i := rng.Intn(nv); i > 0; i-- {
		if u, v := rng.Intn(nv), rng.Intn(nv); u != v {
			g.AddEdge(u, v)
		}
	}
	in := &tdmroute.Instance{Name: "key", G: g, Nets: make([]problem.Net, 1+rng.Intn(15))}
	for i := range in.Nets {
		in.Nets[i].Terminals = rng.Perm(nv)[:1+rng.Intn(min(4, nv))]
	}
	for gi := rng.Intn(8); gi > 0; gi-- {
		members := rng.Perm(len(in.Nets))[:1+rng.Intn(min(4, len(in.Nets)))]
		sortInts(members)
		in.Groups = append(in.Groups, problem.Group{Nets: members})
	}
	in.RebuildNetGroups()
	return in
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// restyle rewrites an instance text without changing the instance: a
// different "# instance" header, comment lines, trailing comments, runs of
// blanks and tabs, CR before LF, blank lines, and group members in a
// shuffled order.
func restyle(text []byte, name string, style uint8, rng *rand.Rand) []byte {
	var out bytes.Buffer
	out.WriteString("# instance " + strings.ReplaceAll(name, "\n", " ") + "\n")
	lines := strings.Split(strings.TrimSuffix(string(text), "\n"), "\n")[1:]
	header := strings.Fields(lines[0])
	firstGroup := 1 + atoi(header[1]) + atoi(header[2])
	for i, line := range lines {
		fields := strings.Fields(line)
		if i >= firstGroup && style&1 != 0 {
			members := fields[1:]
			rng.Shuffle(len(members), func(a, b int) { members[a], members[b] = members[b], members[a] })
		}
		if style&2 != 0 && rng.Intn(3) == 0 {
			out.WriteString("# comment " + strconv.Itoa(i) + "\n")
		}
		if style&4 != 0 && rng.Intn(3) == 0 {
			out.WriteString("\n \t\n")
		}
		sep := " "
		if style&8 != 0 {
			sep = " \t  "
		}
		if style&16 != 0 {
			out.WriteString("\t ")
		}
		out.WriteString(strings.Join(fields, sep))
		if style&32 != 0 {
			out.WriteString("  # trailing")
		}
		if style&64 != 0 {
			out.WriteString("\r")
		}
		out.WriteString("\n")
	}
	return out.Bytes()
}

func atoi(s string) int {
	v, err := strconv.Atoi(s)
	if err != nil {
		panic(err)
	}
	return v
}

// submitKey decodes body the way the coordinator's submit handler does and
// returns the submission's content key.
func submitKey(t *testing.T, body []byte, name string) string {
	t.Helper()
	q := url.Values{"name": {name}, "rounds": {"2"}, "mode": {"iterative"}}
	r := httptest.NewRequest(http.MethodPost, "/v1/jobs?"+q.Encode(), bytes.NewReader(body))
	r.Header.Set("Content-Type", "text/plain")
	sub, err := serve.ParseSubmit(r)
	if err != nil {
		t.Fatalf("submission rejected: %v\nbody: %q", err, body)
	}
	return cacheKey(sub)
}

// FuzzCacheKey checks that the content key is canonical: the same instance
// under a different name, with different comments, blanks or group member
// order, gets the same key, and moving any one terminal changes it.
func FuzzCacheKey(f *testing.F) {
	f.Add(int64(1), uint8(0), "synopsys01")
	f.Add(int64(2), uint8(0xff), "")
	f.Add(int64(3), uint8(0x55), "a\n2 1 1 1\n0 1")
	f.Add(int64(4), uint8(0xaa), "# instance x")
	f.Fuzz(func(t *testing.T, seed int64, style uint8, name string) {
		in := keyInstance(seed)
		var text bytes.Buffer
		if err := problem.WriteInstance(&text, in); err != nil {
			t.Fatal(err)
		}
		key := submitKey(t, text.Bytes(), "job")
		rng := rand.New(rand.NewSource(seed))
		if got := submitKey(t, restyle(text.Bytes(), name, style, rng), name); got != key {
			t.Fatalf("restyled instance named %q (style %#x) keyed %s, want %s", name, style, got, key)
		}

		// Move one terminal of one net to an FPGA the net does not touch.
		moved := in.Clone()
		n := rng.Intn(len(moved.Nets))
		terms := moved.Nets[n].Terminals
		for v := 0; v < in.G.NumVertices(); v++ {
			if !contains(terms, v) {
				terms[rng.Intn(len(terms))] = v
				var mtext bytes.Buffer
				if err := problem.WriteInstance(&mtext, moved); err != nil {
					t.Fatal(err)
				}
				if submitKey(t, mtext.Bytes(), "job") == key {
					t.Fatalf("moving a terminal of net %d kept the key %s", n, key)
				}
				break
			}
		}
	})
}

func contains(a []int, v int) bool {
	for _, x := range a {
		if x == v {
			return true
		}
	}
	return false
}

// TestCacheKeyPinned pins the content key of one fixed instance and request,
// plain and with a fixed routing: a change to the text writers must not
// move cached results out from under their keys.
func TestCacheKeyPinned(t *testing.T) {
	in := testInstance(t)
	sub := serve.SubmitRequest{Instance: in, Mode: tdmroute.ModeIterative, Rounds: 2,
		Epsilon: 0.003, MaxIter: 50, RipUp: 1, Workers: 2, Pow2: true}
	if got, want := cacheKey(sub), "d258b9a8a222ddc87699ec0684376c5e099451b63a52c4c010d4bb511703edc2"; got != want {
		t.Errorf("plain key %s, want %s", got, want)
	}
	routes := make(tdmroute.Routing, len(in.Nets))
	for i := range routes {
		routes[i] = []int{i % in.G.NumEdges(), (i + 1) % in.G.NumEdges()}
	}
	assign := serve.SubmitRequest{Instance: in, Mode: tdmroute.ModeAssignOnly, Routing: routes}
	if got, want := cacheKey(assign), "e7c74db86a6b08bca8818a024812f29d5c5811055bdefa6a9f8d8db3fe16f21f"; got != want {
		t.Errorf("assign key %s, want %s", got, want)
	}
}
