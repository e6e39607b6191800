package bench

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"unsafe"

	"repro/internal/tensor"
)

// Streaming bulk scoring: an offline scorer walks a feature file of
// arbitrary size — a row per input, comma-separated float32 features — and
// feeds fixed-size batches to an inference function without ever holding
// more than one batch in memory. The row loop is ReuseRecord-style: the
// reader hands out one reused row slice, the batcher packs it into one
// reused flat buffer, so steady state performs zero heap allocations per
// row regardless of file size.

// RecordReader streams float32 feature rows out of CSV-shaped data.
type RecordReader struct {
	br *bufio.Reader
	// row is the reused record; Next returns views of it.
	row  []float32
	line int
	// fields is the number of values every row must carry; fixed by the
	// first row (or the constructor) and enforced on every later one.
	fields int
}

// NewRecordReader wraps r. fields > 0 pins the required row width up front;
// fields == 0 adopts the width of the first data row. skipHeader discards
// the first line unparsed (a column-name header).
func NewRecordReader(r io.Reader, fields int, skipHeader bool) (*RecordReader, error) {
	rr := &RecordReader{br: bufio.NewReaderSize(r, 1<<16), fields: fields}
	if skipHeader {
		if _, err := rr.readLine(); err != nil && err != io.EOF {
			return nil, err
		}
	}
	return rr, nil
}

// readLine returns the next line without its terminator. Unlike
// bufio.Scanner it has no fixed token limit — long lines accumulate across
// buffer refills (into a fresh slice only when a line outgrows the buffer).
func (rr *RecordReader) readLine() ([]byte, error) {
	rr.line++
	line, err := rr.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		// Rare slow path: the line is longer than the reader's buffer.
		long := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull {
			line, err = rr.br.ReadSlice('\n')
			long = append(long, line...)
		}
		line = long
	}
	if err != nil && (err != io.EOF || len(line) == 0) {
		return nil, err
	}
	for len(line) > 0 && (line[len(line)-1] == '\n' || line[len(line)-1] == '\r') {
		line = line[:len(line)-1]
	}
	return line, nil
}

// Next returns the next feature row. The returned slice is reused by the
// following Next call — the caller must consume (or copy) it first. Blank
// lines are skipped; the stream ends with io.EOF.
func (rr *RecordReader) Next() ([]float32, error) {
	for {
		line, err := rr.readLine()
		if err != nil {
			return nil, err
		}
		if len(line) == 0 {
			continue
		}
		row := rr.row[:0]
		for len(line) > 0 {
			field := line
			if c := indexByte(line, ','); c >= 0 {
				field, line = line[:c], line[c+1:]
			} else {
				line = nil
			}
			// unsafe.String avoids the per-field []byte→string copy; ParseFloat
			// only reads the bytes for the duration of the call.
			v, err := strconv.ParseFloat(unsafe.String(unsafe.SliceData(field), len(field)), 32)
			if err != nil {
				return nil, fmt.Errorf("bench: line %d: bad feature %q", rr.line, field)
			}
			row = append(row, float32(v))
		}
		rr.row = row
		if rr.fields == 0 {
			rr.fields = len(row)
		}
		if len(row) != rr.fields {
			return nil, fmt.Errorf("bench: line %d has %d features, want %d", rr.line, len(row), rr.fields)
		}
		return row, nil
	}
}

// Fields returns the enforced row width (0 until the first row fixes it).
func (rr *RecordReader) Fields() int { return rr.fields }

// indexByte is bytes.IndexByte without the import — the scan is short and
// branch-predictable for comma-separated numerics.
func indexByte(b []byte, c byte) int {
	for i, x := range b {
		if x == c {
			return i
		}
	}
	return -1
}

// ScoreFunc classifies one packed batch. Both execution paths provide one:
// Reinterpreted.Predict and HardwareNetwork.InferBatchStats (both wrapped).
type ScoreFunc func(x *tensor.Tensor) ([]int, error)

// BulkScore drains rr, packing up to batch rows at a time into one reused
// flat buffer, scoring each batch through fn, and handing the predictions to
// emit (base is the zero-based row index of preds[0]). It returns the number
// of rows scored. Memory is O(batch·features) for any input size; the row
// loop itself allocates nothing in steady state.
func BulkScore(rr *RecordReader, features, batch int, fn ScoreFunc, emit func(base int, preds []int) error) (int, error) {
	if batch <= 0 {
		batch = 256
	}
	if features <= 0 {
		return 0, fmt.Errorf("bench: bulk scoring needs a positive feature count, got %d", features)
	}
	flat := make([]float32, 0, batch*features)
	total := 0
	flush := func() error {
		rows := len(flat) / features
		if rows == 0 {
			return nil
		}
		preds, err := fn(tensor.FromSlice(flat, rows, features))
		if err != nil {
			return fmt.Errorf("bench: scoring rows %d..%d: %w", total, total+rows-1, err)
		}
		if err := emit(total, preds); err != nil {
			return err
		}
		total += rows
		flat = flat[:0]
		return nil
	}
	for {
		row, err := rr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return total, err
		}
		if len(row) != features {
			return total, fmt.Errorf("bench: row %d has %d features, model wants %d", total+len(flat)/features, len(row), features)
		}
		flat = append(flat, row...)
		if len(flat) == batch*features {
			if err := flush(); err != nil {
				return total, err
			}
		}
	}
	if err := flush(); err != nil {
		return total, err
	}
	return total, nil
}
