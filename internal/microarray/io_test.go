package microarray

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

func TestTSVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := Synthesize(rng, SyntheticConfig{Genes: 7, Conditions: 5})
	m.Names = []string{"a", "b", "c", "d", "e", "f", "g"}
	var buf bytes.Buffer
	if err := WriteTSV(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Genes != m.Genes || got.Conditions != m.Conditions {
		t.Fatalf("shape %dx%d, want %dx%d", got.Genes, got.Conditions, m.Genes, m.Conditions)
	}
	for g := 0; g < m.Genes; g++ {
		if got.Names[g] != m.Names[g] {
			t.Errorf("name[%d] = %q", g, got.Names[g])
		}
		for c := 0; c < m.Conditions; c++ {
			if got.Data[g][c] != m.Data[g][c] {
				t.Errorf("data[%d][%d] = %g, want %g", g, c, got.Data[g][c], m.Data[g][c])
			}
		}
	}
}

func TestTSVDefaultNames(t *testing.T) {
	m := NewMatrix(2, 2)
	var buf bytes.Buffer
	if err := WriteTSV(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Names[0] != "gene_0" || got.Names[1] != "gene_1" {
		t.Errorf("default names = %v", got.Names)
	}
}

func TestReadTSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"no conditions": "gene\n",
		"short row":     "gene\tcond_1\tcond_2\na\t1.0\n",
		"bad number":    "gene\tcond_1\na\tnotanumber\n",
	}
	for name, input := range cases {
		if _, err := ReadTSV(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted %q", name, input)
		}
	}
	// Blank lines are tolerated.
	m, err := ReadTSV(strings.NewReader("gene\tcond_1\n\na\t1.5\n"))
	if err != nil || m.Genes != 1 || m.Data[0][0] != 1.5 {
		t.Errorf("blank-line parse: %v %+v", err, m)
	}
}

// failWriter injects a write failure after n bytes.
type failWriter struct{ n int }

var errInjected = errors.New("injected write failure")

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errInjected
	}
	if len(p) > f.n {
		p = p[:f.n]
	}
	f.n -= len(p)
	return len(p), nil
}

func TestWriteTSVPropagatesErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m := Synthesize(rng, SyntheticConfig{Genes: 50, Conditions: 20})
	for _, budget := range []int{0, 3, 100, 1000} {
		if err := WriteTSV(&failWriter{n: budget}, m); err == nil {
			t.Errorf("budget %d: write failure swallowed", budget)
		}
	}
}

func TestReadTSVRejectsNonFinite(t *testing.T) {
	for _, v := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "infinity", "1e400"} {
		input := "gene\tcond_1\tcond_2\na\t1\t2\nb\t3\t" + v + "\n"
		_, err := ReadTSV(strings.NewReader(input))
		if err == nil {
			t.Errorf("%s: accepted", v)
		} else if !strings.Contains(err.Error(), "line 3 column 3") {
			t.Errorf("%s: error %q does not name line 3 column 3", v, err)
		}
	}
}

// FuzzReadTSV: ReadTSV never panics, and whatever it accepts survives a
// WriteTSV/ReadTSV round trip with its shape and values intact.
func FuzzReadTSV(f *testing.F) {
	f.Add([]byte("gene\tcond_1\tcond_2\na\t1.5\t-2\nb\t0\t3e-7\n"))
	f.Add([]byte("gene\tcond_1\n\na\tNaN\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadTSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTSV(&buf, m); err != nil {
			t.Fatal(err)
		}
		again, err := ReadTSV(&buf)
		if err != nil {
			t.Fatalf("re-read of written matrix: %v", err)
		}
		if again.Genes != m.Genes || again.Conditions != m.Conditions {
			t.Fatalf("shape %dx%d, re-read %dx%d", m.Genes, m.Conditions, again.Genes, again.Conditions)
		}
		for g := range m.Data {
			for c, v := range m.Data[g] {
				if again.Data[g][c] != v {
					t.Fatalf("data[%d][%d] = %v, re-read %v", g, c, v, again.Data[g][c])
				}
			}
		}
	})
}
