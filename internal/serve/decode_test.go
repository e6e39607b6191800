package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/crossbar"
)

// fleetBody is a predict body shaped like the ones perfbench's fleet
// workloads send: one 784-feature row, model and path named.
func fleetBody(tb testing.TB) []byte {
	tb.Helper()
	b, err := json.Marshal(predictRequest{Model: "demo", Path: "software", Inputs: testRows(1, 784, 5)})
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// FuzzPredictBody holds both predict-body decoders to encoding/json, their
// test oracle: the replica's decodePredict must accept exactly the bodies
// json.Decoder.Decode accepts into a predictRequest and give the same
// fields, row lengths and float32 bits (a nil and an empty row are the same
// to the handler, which reads only lengths); PredictEnvelope must accept
// exactly what json.Unmarshal accepts into struct{ Model, Tenant string }
// and give the same two strings.
func FuzzPredictBody(f *testing.F) {
	deep := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	for _, seed := range []string{
		// The first value is decoded; the replica ignores what follows it,
		// the router refuses it.
		`{"inputs":[[1,2]]} {"inputs":[[3]]}`,
		`{"model":"m"}x`,
		`{} `,
		"\t\n\r {}\r\n",
		// null at top level, for a field, for a row and for an element; an
		// empty body and a blank one.
		`null`,
		`null x`,
		`nul`,
		`{"model":null,"path":null,"tenant":null,"inputs":null}`,
		`{"inputs":[null,[1]]}`,
		`{"inputs":[[null,1,null]]}`,
		``,
		`   `,
		// Nil and empty rows.
		`{"inputs":[]}`,
		`{"inputs":[[],null,[]]}`,
		// Types: the router checks model and tenant only, the replica every
		// field.
		`{"inputs":"x","path":5}`,
		`{"inputs":[1]}`,
		`{"inputs":[["1"]]}`,
		`{"inputs":{}}`,
		`{"model":5}`,
		`{"tenant":true}`,
		`{"path":[]}`,
		`[]`,
		`"model"`,
		`7`,
		`true`,
		// Invalid JSON anywhere in the body.
		`{"inputs":[[1,]]}`,
		`{"inputs":[[1]],}`,
		`{"x":[1 2]}`,
		`{"x":tru}`,
		`{"x":01}`,
		`{"x":-}`,
		`{"x":1.}`,
		`{"x":1e}`,
		`{"x":.5}`,
		`{"x":+1}`,
		`{"model" "m"}`,
		`{model:"m"}`,
		`{"model":"m"`,
		"{\"model\":\"a\x01b\"}",
		`{"model":"\x"}`,
		`{"model":"\u12"}`,
		// Keys fold under Unicode simple folding; the last duplicate wins,
		// and a repeated inputs decodes over the rows already there.
		`{"inputſ":[[1]],"MODEL":"m","Tenant":"t","pAtH":"hardware"}`,
		`{"İnputs":[[1]],"ınputs":[[2]],"K":1}`,
		`{"model":"a","model":"b","tenant":"c","tenant":null}`,
		`{"inputs":[[1,2,3],[4]],"inputs":[[null,5]]}`,
		`{"inputs":[[1,2]],"inputs":[]}`,
		`{"inputs":[[1,2]],"inputs":null,"inputs":[[null]]}`,
		`{"model":"m","tenant":"t"}`,
		// Numbers: float32 range and rounding.
		`{"inputs":[[1e39]]}`,
		`{"inputs":[[-1e39]]}`,
		`{"inputs":[[1e-50,-0,0.1,3.4028235e38,1.17549435e-38,1e-45,16777217]]}`,
		`{"inputs":[[-0.0E+0,1E-2,123456789012345678901234567890]]}`,
		// Strings: escapes, invalid UTF-8 and a lone surrogate.
		`{"model":"a\"b\\c\/d\b\f\n\r\t","tenant":"é😀"}`,
		"{\"model\":\"\xff\xfe\",\"tenant\":\"caf\xc3\xa9\"}",
		`{"model":"\ud800","tenant":"\udc00x"}`,
		// Nesting: encoding/json allows 10,000 levels, not one more.
		`{"x":` + deep(9999) + `}`,
		`{"x":` + deep(10000) + `}`,
		deep(3),
		// Other members are skipped whatever they hold.
		`{"x":{"y":[true,false,null,"s",-1.5e-3,{}]},"model":"m"}`,
		string(fleetBody(f)),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var want predictRequest
		wantErr := json.NewDecoder(bytes.NewReader(b)).Decode(&want)
		// A reused first-row buffer starts dirty, as one from the pool does.
		first := make([]float32, 0, 4)
		for i := range first[:cap(first)] {
			first[:cap(first)][i] = 7
		}
		got, err := decodePredict(b, first)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decodePredict(%q): err %v, encoding/json err %v", b, err, wantErr)
		}
		if err == nil {
			if d := diffRequests(got, want); d != "" {
				t.Fatalf("decodePredict(%q): %s", b, d)
			}
		}

		var env struct{ Model, Tenant string }
		wantErr = json.Unmarshal(b, &env)
		model, tenant, err := PredictEnvelope(b)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("PredictEnvelope(%q): err %v, json.Unmarshal err %v", b, err, wantErr)
		}
		if err == nil && (model != env.Model || tenant != env.Tenant) {
			t.Fatalf("PredictEnvelope(%q) = %q, %q; json.Unmarshal %q, %q", b, model, tenant, env.Model, env.Tenant)
		}
	})
}

// diffRequests describes how got differs from want, comparing rows by
// length and float32 bits; "" means they agree.
func diffRequests(got, want predictRequest) string {
	if got.Model != want.Model || got.Path != want.Path || got.Tenant != want.Tenant {
		return fmt.Sprintf("model/path/tenant %q/%q/%q, want %q/%q/%q",
			got.Model, got.Path, got.Tenant, want.Model, want.Path, want.Tenant)
	}
	if len(got.Inputs) != len(want.Inputs) {
		return fmt.Sprintf("%d rows, want %d", len(got.Inputs), len(want.Inputs))
	}
	for i, row := range got.Inputs {
		if len(row) != len(want.Inputs[i]) {
			return fmt.Sprintf("row %d has %d features, want %d", i, len(row), len(want.Inputs[i]))
		}
		for j, v := range row {
			if math.Float32bits(v) != math.Float32bits(want.Inputs[i][j]) {
				return fmt.Sprintf("inputs[%d][%d] = %v, want %v", i, j, v, want.Inputs[i][j])
			}
		}
	}
	return ""
}

// A request's first row is parsed into a pooled buffer. After a context
// error the dispatcher may still read that row, so the buffer must not go
// back to the pool: here a batch is held inside the backend while its
// request times out, later requests cycle the pools (they time out behind
// it, are refused after decoding, or are answered by another model's lane),
// and the held batch must still read exactly the row its request sent.
func TestRecycledBuffersSurviveCancellation(t *testing.T) {
	m, other := syntheticModel(t, false), syntheticModel(t, false)
	other.Name = "other"
	reg := NewRegistry()
	reg.Add(m)
	reg.Add(other)
	s := NewServer(reg, Config{RequestTimeout: 100 * time.Millisecond})
	defer s.Close()
	ln, err := s.laneFor(m, PathSoftware)
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var held [][]float32 // what the held batch read once released
	var once sync.Once
	ln.b.infer = func(rows [][]float32) ([]int, crossbar.Stats, error) {
		first := false
		once.Do(func() { first = true })
		if first {
			close(entered)
			<-release
			for _, row := range rows {
				held = append(held, append([]float32(nil), row...))
			}
		}
		return make([]int, len(rows)), crossbar.Stats{}, nil
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	post := func(model string, row []float32) int {
		b, err := json.Marshal(predictRequest{Model: model, Inputs: [][]float32{row}})
		if err != nil {
			t.Error(err)
			return 0
		}
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Error(err)
			return 0
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	rows := testRows(9, m.InSize(), 17)
	codes := make(chan int, 1)
	go func() { codes <- post("tiny", rows[0]) }()
	<-entered
	if code := <-codes; code != http.StatusGatewayTimeout {
		t.Fatalf("held request answered %d, want 504", code)
	}
	for i, row := range rows[1:] {
		model, want := "tiny", http.StatusGatewayTimeout
		switch i % 3 {
		case 1:
			model, want = "nope", http.StatusNotFound
		case 2:
			model, want = "other", http.StatusOK
		}
		if code := post(model, row); code != want {
			t.Fatalf("request %d to %q answered %d, want %d", i+1, model, code, want)
		}
	}
	close(release)
	s.Close()
	if len(held) != 1 || diffRequests(predictRequest{Inputs: held}, predictRequest{Inputs: rows[:1]}) != "" {
		t.Fatalf("held batch read %v, want the timed-out request's row %v", held, rows[0])
	}
}

// BenchmarkPredictBody decodes a fleet-shaped body with the replica's and
// the router's decoders, each beside the encoding/json call it replaced.
func BenchmarkPredictBody(b *testing.B) {
	body := fleetBody(b)
	b.Run("replica", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		var first []float32
		for i := 0; i < b.N; i++ {
			req, err := decodePredict(body, first)
			if err != nil {
				b.Fatal(err)
			}
			first = req.Inputs[0][:0]
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req predictRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("router", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, _, err := PredictEnvelope(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json_unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var env struct{ Model, Tenant string }
			if err := json.Unmarshal(body, &env); err != nil {
				b.Fatal(err)
			}
		}
	})
}
