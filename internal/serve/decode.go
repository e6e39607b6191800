package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
)

// maxPooled bounds each buffer the replica pools, so one large request pins
// no memory; maxDepth is encoding/json's nesting limit.
const maxBody, maxPooled, maxDepth = 64 << 20, 1 << 20, 10000

// bodies and firstRows recycle the replica's body buffers and first rows.
var bodies, firstRows = sync.Pool{New: func() any { return new([]byte) }},
	sync.Pool{New: func() any { return new([]float32) }}

// ReadBody reads a predict body of at most 64 MiB: one io.ReadFull into buf,
// grown if need be, if Content-Length gives the size, else MaxBytesReader.
func ReadBody(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, error) {
	if n := r.ContentLength; n > 0 && n <= maxBody {
		buf = slices.Grow(buf[:0], int(n))[:n]
		_, err := io.ReadFull(r.Body, buf)
		return buf, err
	}
	return io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
}

// decodePredict decodes a predict body as json.NewDecoder(…).Decode does,
// ignoring what follows the first value. Row 0 is parsed into first.
func decodePredict(body []byte, first []float32) (req predictRequest, err error) {
	err = (&scanner{b: body}).predict(&req, first, true)
	return req, err
}

// PredictEnvelope reads model and tenant as json.Unmarshal reads a predict
// body into struct{ Model, Tenant string }: the whole body must be valid
// JSON, and only model and tenant are type-checked and converted.
func PredictEnvelope(body []byte) (model, tenant string, err error) {
	var req predictRequest
	s := &scanner{b: body}
	err = s.predict(&req, nil, false)
	if s.next(); err == nil && s.i < len(s.b) {
		err = s.fail("the end of the body")
	}
	return req.Model, req.Tenant, err
}

// scanner checks a JSON text as encoding/json does, converting only on request.
type scanner struct {
	b []byte
	i int
}

// predict scans a predict body into req, matching keys under Unicode simple
// folding as encoding/json does. Without rows, inputs and path are skipped.
func (s *scanner) predict(req *predictRequest, first []float32, rows bool) error {
	return s.seq(1, '{', func(key []byte) error {
		switch {
		case rows && bytes.EqualFold(key, []byte("inputs")):
			return s.rows(&req.Inputs, first)
		case rows && bytes.EqualFold(key, []byte("path")):
			return s.text(&req.Path)
		case bytes.EqualFold(key, []byte("model")):
			return s.text(&req.Model)
		case bytes.EqualFold(key, []byte("tenant")):
			return s.text(&req.Tenant)
		}
		return s.skip(2)
	})
}

// next skips whitespace and returns the byte after it, or 0 at the end.
func (s *scanner) next() byte {
	for ; s.i < len(s.b); s.i++ {
		if c := s.b[s.i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

func (s *scanner) fail(want string) error {
	return fmt.Errorf("offset %d: want %s", s.i, want)
}

func (s *scanner) accept(c byte) bool {
	ok := s.i < len(s.b) && s.b[s.i] == c
	if ok {
		s.i++
	}
	return ok
}

// noDigits consumes a run of decimal digits and reports whether it was empty.
func (s *scanner) noDigits() bool {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i == start
}

// lit consumes the literal true, false or null that comes next.
func (s *scanner) lit() error {
	for _, w := range [...]string{"true", "false", "null"} {
		if len(s.b)-s.i >= len(w) && string(s.b[s.i:s.i+len(w)]) == w {
			s.i += len(w)
			return nil
		}
	}
	return s.fail("true, false or null")
}

// number scans null, which leaves *f as it was, or a number,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, which it parses into *f as
// encoding/json parses a float32 unless f is nil.
func (s *scanner) number(f *float32) error {
	if s.next() == 'n' {
		return s.lit()
	}
	start := s.i
	s.accept('-')
	if !s.accept('0') && s.noDigits() || s.accept('.') && s.noDigits() ||
		(s.accept('e') || s.accept('E')) && (s.accept('+') || s.accept('-') || true) && s.noDigits() {
		return s.fail("a digit")
	} else if f == nil {
		return nil
	}
	v, err := strconv.ParseFloat(string(s.b[start:s.i]), 32)
	*f = float32(v)
	return err
}

// str scans a string token and returns its value: the text itself when it
// has no backslash and no byte ≥ 0x80, else what encoding/json decodes.
func (s *scanner) str() ([]byte, error) {
	if s.next() != '"' {
		return nil, s.fail("a string")
	}
	start, plain := s.i, true
	for s.i++; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			if s.i++; plain {
				return s.b[start+1 : s.i-1], nil
			}
			var v string
			err := json.Unmarshal(s.b[start:s.i], &v)
			return []byte(v), err
		case c == '\\':
			s.i++ // an escaped byte never ends the token
			fallthrough
		case c < 0x20 || c >= 0x80: // left to encoding/json's checks
			plain = false
		}
	}
	return nil, s.fail("a closing quote")
}

// text decodes a string into *dst; null leaves *dst as it was.
func (s *scanner) text(dst *string) error {
	if s.next() == 'n' {
		return s.lit()
	}
	v, err := s.str()
	*dst = string(v)
	return err
}

// seq scans null, or the object or array that open starts at nesting depth
// depth, calling elem to scan each member, after its key, or element.
func (s *scanner) seq(depth int, open byte, elem func(key []byte) error) (err error) {
	if c := s.next(); c == 'n' {
		return s.lit()
	} else if c != open || depth > maxDepth {
		return s.fail(fmt.Sprintf("null or %q nested at most 10000 deep", open))
	}
	end := open + 2 // '}' and ']' are two bytes on from '{' and '['
	if s.i++; s.next() == end && s.accept(end) {
		return nil
	}
	for {
		var key []byte
		if open == '{' {
			if key, err = s.str(); err != nil {
				return err
			} else if s.next(); !s.accept(':') {
				return s.fail("':'")
			}
		}
		if err = elem(key); err != nil {
			return err
		}
		if s.next(); s.accept(end) {
			return nil
		} else if !s.accept(',') {
			return s.fail("',' or a closing bracket")
		}
	}
}

// skip scans one value, whose containers open at nesting depth depth.
func (s *scanner) skip(depth int) error {
	switch c := s.next(); c {
	case '{', '[':
		return s.seq(depth, c, func([]byte) error { return s.skip(depth + 1) })
	case '"':
		_, err := s.str()
		return err
	case 't', 'f', 'n':
		return s.lit()
	}
	return s.number(nil)
}

// rows decodes inputs into *dst. A new row 0 is first's backing array,
// cleared to read as a new one would.
func (s *scanner) rows(dst *[][]float32, first []float32) error {
	return array(s, 2, dst, func(row *[]float32) error {
		if len(*dst) == 1 && *row == nil {
			clear(first[:cap(first)])
			*row = first[:0]
		}
		return array(s, 3, row, s.number)
	})
}

// array decodes null or an array into *dst as encoding/json decodes a slice:
// elem decodes each element over what *dst's backing array holds there.
func array[T any](s *scanner, depth int, dst *[]T, elem func(v *T) error) error {
	if *dst = (*dst)[:0]; s.next() == 'n' {
		*dst = nil
	}
	return s.seq(depth, '[', func([]byte) error {
		*dst = slices.Grow(*dst, 1)[:len(*dst)+1]
		return elem(&(*dst)[len(*dst)-1])
	})
}
