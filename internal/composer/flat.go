package composer

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"unsafe"

	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// RAPIDNN2 is the flat, versioned, zero-copy artifact format. The gob stream
// (RAPIDNN1) decodes every table into fresh heap objects; the flat layout
// instead stores the large read-only tables — codebooks, activation-table
// Y/Z columns, canary inputs, and the stride-indexed fixed-point product
// tables the crossbars are configured with (§3.3) — as raw, 8-byte-aligned
// sections that the loader slices straight out of an mmap'd file. Load cost
// is O(sections) regardless of table size, and because the mapping is
// read-only, replicas serving the same artifact on one host share the page
// cache instead of each materializing a private copy.
//
// On-disk layout (all integers in the writer's native byte order; the header
// carries a byte-order mark the reader checks against its own):
//
//	[0:8)   magic "RAPIDNN2"
//	[8:12)  format version (currently 1)
//	[12:16) byte-order mark 0x01020304
//	[16:20) section count N
//	[20:24) CRC-32C of the section table
//	[24:32) total file size in bytes
//	[32:..) section table: N × 24-byte entries {kind u32, crc u32, off u64, len u64}
//	        sections, each starting at an 8-byte-aligned offset
//
// Section 0 is always the gob-encoded metadata (flatMeta): every scalar,
// string and small map, plus typed references {section index, element count}
// into the blob sections. Every other section is a raw little-endian-native
// array of float32 (kind 2) or int64 (kind 3) and carries its own CRC-32C,
// verified at load. Versioning rule: readers reject versions they do not
// know; additive evolution happens by new section kinds (unknown kinds in a
// known version are an error — sections are never silently skipped).
const (
	flatMagic   = "RAPIDNN2"
	flatVersion = 1
	flatBOM     = 0x01020304
	flatAlign   = 8

	flatHeaderSize = 32
	flatEntrySize  = 24

	secMeta uint32 = 1 // gob-encoded flatMeta
	secF32  uint32 = 2 // raw []float32
	secI64  uint32 = 3 // raw []int64
)

// FlatProductFracBits is the fixed-point fraction of the pre-composed
// product tables embedded in RAPIDNN2 artifacts. It must equal the hardware
// path's fixed-point format (rna's hwFracBits) for the lowering to borrow
// the tables; rna cross-checks at build time and falls back to recomputing
// on mismatch.
const FlatProductFracBits uint = 16

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// flatRef points a metadata field at a blob section: the section index and
// the element count the section must hold. The zero ref means "absent"
// (section 0 is the metadata itself, so no blob can legitimately live there).
type flatRef struct {
	Sec   uint32
	Count uint32
}

// flatLayer is layerSnapshot with the weight arrays moved out to sections.
type flatLayer struct {
	Kind string
	Name string
	Act  string
	Skip bool

	In, Out  int
	Geom     tensor.ConvGeom
	OutC     int
	PoolKind int
	Hidden   int
	Steps    int
	Size     int
	Rate     float64

	W, B, Wx, Wh flatRef
}

// flatPlan is planSnapshot with every table moved out to sections, plus the
// pre-composed product tables the gob format never carried.
type flatPlan struct {
	Kind            int
	Index           int
	Name            string
	WeightCodebooks []flatRef
	ChannelCodebook []int32
	InputCodebook   flatRef
	ActName         string
	ActY, ActZ      flatRef
	Neurons, Edges  int
	RawInputs       int
	// Products references one [len(wcb)·len(ucb)] int64 table per weight
	// codebook group; empty for non-compute plans.
	Products []flatRef
}

type flatMeta struct {
	NetName       string
	BaselineError float64
	FinalError    float64
	TotalEpochs   int
	Layers        []flatLayer
	Plans         []flatPlan
	// Canary inputs are packed row-major into one float32 section of
	// len(CanaryPreds)·InSize values.
	CanaryPreds     []int
	CanaryInputs    flatRef
	ProductFracBits uint32
}

// flatBuilder accumulates sections during SaveFlat. Section 0 is reserved
// for the metadata and filled last.
type flatBuilder struct {
	kinds []uint32
	blobs [][]byte
}

func newFlatBuilder() *flatBuilder {
	return &flatBuilder{kinds: []uint32{secMeta}, blobs: [][]byte{nil}}
}

func (fb *flatBuilder) add(kind uint32, data []byte, count int) flatRef {
	if count == 0 {
		return flatRef{}
	}
	fb.kinds = append(fb.kinds, kind)
	fb.blobs = append(fb.blobs, data)
	return flatRef{Sec: uint32(len(fb.blobs) - 1), Count: uint32(count)}
}

func (fb *flatBuilder) addF32(v []float32) flatRef { return fb.add(secF32, f32Bytes(v), len(v)) }
func (fb *flatBuilder) addI64(v []int64) flatRef   { return fb.add(secI64, i64Bytes(v), len(v)) }

// f32Bytes / i64Bytes view a numeric slice as its backing bytes without
// copying; bytesF32 / bytesI64 are the inverse views over (aligned) section
// bytes. The views share memory with their argument.
func f32Bytes(v []float32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*4)
}

func i64Bytes(v []int64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}

func bytesF32(b []byte) []float32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func bytesI64(b []byte) []int64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// productTable pre-computes the crossbar product table for one codebook pair
// at compose time — entry (w,u) at [w·len(ucb)+u]. quant.ToFixed keeps it
// bit-identical to the table rna.NewFuncRNAShared derives at lowering time
// when it is handed no table to borrow.
func productTable(wcb, ucb []float32, frac uint) []int64 {
	t := make([]int64, len(wcb)*len(ucb))
	for wi, wv := range wcb {
		row := t[wi*len(ucb) : (wi+1)*len(ucb)]
		for ui, uv := range ucb {
			row[ui] = quant.ToFixed(float64(wv)*float64(uv), frac)
		}
	}
	return t
}

// planProductTables returns the plan's product tables for embedding: the
// already-loaded tables when they match the current codebooks (the
// flat→flat conversion path), freshly computed ones otherwise.
func planProductTables(p *LayerPlan) [][]int64 {
	if !p.IsCompute() {
		return nil
	}
	if p.ProductFracBits == FlatProductFracBits && len(p.Products) == len(p.WeightCodebooks) {
		ok := true
		for g, tab := range p.Products {
			if len(tab) != len(p.WeightCodebooks[g])*len(p.InputCodebook) {
				ok = false
				break
			}
		}
		if ok {
			return p.Products
		}
	}
	out := make([][]int64, len(p.WeightCodebooks))
	for g, wcb := range p.WeightCodebooks {
		out[g] = productTable(wcb, p.InputCodebook, FlatProductFracBits)
	}
	return out
}

// SaveFlat writes the composed model as a RAPIDNN2 flat artifact, including
// the pre-composed product tables the accelerator is configured with — the
// full §3.3 configuration product, amortized offline exactly as the paper
// amortizes the composer itself (§5.2).
func (c *Composed) SaveFlat(w io.Writer) error {
	fb := newFlatBuilder()
	meta := flatMeta{
		NetName:         c.Net.Name,
		BaselineError:   c.BaselineError,
		FinalError:      c.FinalError,
		TotalEpochs:     c.TotalEpochs,
		ProductFracBits: uint32(FlatProductFracBits),
	}
	for _, l := range c.Net.Layers {
		ls, err := snapshotLayer(l)
		if err != nil {
			return err
		}
		meta.Layers = append(meta.Layers, flatLayer{
			Kind: ls.Kind, Name: ls.Name, Act: ls.Act, Skip: ls.Skip,
			In: ls.In, Out: ls.Out, Geom: ls.Geom, OutC: ls.OutC, PoolKind: ls.PoolKind,
			Hidden: ls.Hidden, Steps: ls.Steps, Size: ls.Size, Rate: ls.Rate,
			W: fb.addF32(ls.W), B: fb.addF32(ls.B), Wx: fb.addF32(ls.Wx), Wh: fb.addF32(ls.Wh),
		})
	}
	for _, p := range c.Plans {
		fp := flatPlan{
			Kind: int(p.Kind), Index: p.Index, Name: p.Name,
			InputCodebook: fb.addF32(p.InputCodebook),
			Neurons:       p.Neurons, Edges: p.Edges, RawInputs: p.RawInputs,
		}
		for _, cb := range p.WeightCodebooks {
			fp.WeightCodebooks = append(fp.WeightCodebooks, fb.addF32(cb))
		}
		for _, b := range p.ChannelCodebook {
			fp.ChannelCodebook = append(fp.ChannelCodebook, int32(b))
		}
		if p.ActTable != nil {
			fp.ActName = p.ActTable.Name
			fp.ActY = fb.addF32(p.ActTable.Y)
			fp.ActZ = fb.addF32(p.ActTable.Z)
		}
		for _, tab := range planProductTables(p) {
			fp.Products = append(fp.Products, fb.addI64(tab))
		}
		meta.Plans = append(meta.Plans, fp)
	}
	if len(c.Canaries) > 0 {
		in := c.Net.InSize()
		flat := make([]float32, 0, len(c.Canaries)*in)
		for _, cn := range c.Canaries {
			if len(cn.Input) != in {
				return fmt.Errorf("composer: canary has %d features, network wants %d", len(cn.Input), in)
			}
			flat = append(flat, cn.Input...)
			meta.CanaryPreds = append(meta.CanaryPreds, cn.Pred)
		}
		meta.CanaryInputs = fb.addF32(flat)
	}
	var metaBuf bytes.Buffer
	if err := gob.NewEncoder(&metaBuf).Encode(meta); err != nil {
		return fmt.Errorf("composer: encoding flat metadata: %w", err)
	}
	fb.blobs[0] = metaBuf.Bytes()

	// Lay the sections out back to back, each 8-byte aligned.
	n := len(fb.blobs)
	offsets := make([]uint64, n)
	pos := uint64(flatHeaderSize + n*flatEntrySize)
	for i, b := range fb.blobs {
		pos = (pos + flatAlign - 1) &^ uint64(flatAlign-1)
		offsets[i] = pos
		pos += uint64(len(b))
	}
	file := make([]byte, pos)
	copy(file[0:8], flatMagic)
	ne := binary.NativeEndian
	ne.PutUint32(file[8:12], flatVersion)
	ne.PutUint32(file[12:16], flatBOM)
	ne.PutUint32(file[16:20], uint32(n))
	ne.PutUint64(file[24:32], pos)
	table := file[flatHeaderSize : flatHeaderSize+n*flatEntrySize]
	for i, b := range fb.blobs {
		e := table[i*flatEntrySize:]
		ne.PutUint32(e[0:4], fb.kinds[i])
		ne.PutUint32(e[4:8], crc32.Checksum(b, castagnoli))
		ne.PutUint64(e[8:16], offsets[i])
		ne.PutUint64(e[16:24], uint64(len(b)))
		copy(file[offsets[i]:], b)
	}
	ne.PutUint32(file[20:24], crc32.Checksum(table, castagnoli))
	_, err := w.Write(file)
	return err
}

// flatSec is one parsed and checksum-verified section.
type flatSec struct {
	kind uint32
	data []byte
}

// parseFlat validates the header, section table and every section checksum,
// returning the section views. It touches O(file) bytes for the CRCs but
// allocates only the section index — the views alias data.
func parseFlat(data []byte) ([]flatSec, error) {
	if len(data) < flatHeaderSize {
		return nil, fmt.Errorf("composer: flat artifact truncated: %d bytes, header wants %d", len(data), flatHeaderSize)
	}
	if string(data[0:8]) != flatMagic {
		return nil, fmt.Errorf("composer: not a %s artifact (magic %q)", flatMagic, data[0:8])
	}
	ne := binary.NativeEndian
	if v := ne.Uint32(data[8:12]); v != flatVersion {
		return nil, fmt.Errorf("composer: unsupported %s version %d (reader knows %d)", flatMagic, v, flatVersion)
	}
	if bom := ne.Uint32(data[12:16]); bom != flatBOM {
		return nil, fmt.Errorf("composer: artifact written with foreign byte order (mark %#08x)", bom)
	}
	if size := ne.Uint64(data[24:32]); size != uint64(len(data)) {
		return nil, fmt.Errorf("composer: artifact records %d bytes but holds %d (truncated?)", size, len(data))
	}
	n := int(ne.Uint32(data[16:20]))
	if n < 1 || n > (len(data)-flatHeaderSize)/flatEntrySize {
		return nil, fmt.Errorf("composer: implausible section count %d for %d bytes", n, len(data))
	}
	table := data[flatHeaderSize : flatHeaderSize+n*flatEntrySize]
	if got, want := crc32.Checksum(table, castagnoli), ne.Uint32(data[20:24]); got != want {
		return nil, fmt.Errorf("composer: section table checksum mismatch (%#08x vs %#08x)", got, want)
	}
	tableEnd := uint64(flatHeaderSize + n*flatEntrySize)
	secs := make([]flatSec, n)
	for i := 0; i < n; i++ {
		e := table[i*flatEntrySize:]
		kind := ne.Uint32(e[0:4])
		crc := ne.Uint32(e[4:8])
		off := ne.Uint64(e[8:16])
		length := ne.Uint64(e[16:24])
		switch kind {
		case secMeta, secF32, secI64:
		default:
			return nil, fmt.Errorf("composer: section %d has unknown kind %d", i, kind)
		}
		if off%flatAlign != 0 {
			return nil, fmt.Errorf("composer: section %d misaligned at offset %d", i, off)
		}
		if off < tableEnd || off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("composer: section %d [%d:+%d) outside the %d-byte file", i, off, length, len(data))
		}
		b := data[off : off+length]
		if got := crc32.Checksum(b, castagnoli); got != crc {
			return nil, fmt.Errorf("composer: section %d checksum mismatch (%#08x vs %#08x)", i, got, crc)
		}
		secs[i] = flatSec{kind: kind, data: b}
	}
	if secs[0].kind != secMeta {
		return nil, fmt.Errorf("composer: section 0 has kind %d, want metadata", secs[0].kind)
	}
	return secs, nil
}

// flatReader resolves metadata references against the parsed sections.
type flatReader struct{ secs []flatSec }

func (fr *flatReader) bytes(ref flatRef, kind uint32, elem int, what string) ([]byte, error) {
	if ref.Sec == 0 {
		if ref.Count != 0 {
			return nil, fmt.Errorf("%s references the metadata section", what)
		}
		return nil, nil
	}
	if int(ref.Sec) >= len(fr.secs) {
		return nil, fmt.Errorf("%s references section %d of %d", what, ref.Sec, len(fr.secs))
	}
	s := fr.secs[ref.Sec]
	if s.kind != kind {
		return nil, fmt.Errorf("%s references a kind-%d section, want kind %d", what, s.kind, kind)
	}
	if uint64(len(s.data)) != uint64(ref.Count)*uint64(elem) {
		return nil, fmt.Errorf("%s wants %d elements but section %d holds %d bytes", what, ref.Count, ref.Sec, len(s.data))
	}
	return s.data, nil
}

func (fr *flatReader) f32(ref flatRef, what string) ([]float32, error) {
	b, err := fr.bytes(ref, secF32, 4, what)
	return bytesF32(b), err
}

func (fr *flatReader) i64(ref flatRef, what string) ([]int64, error) {
	b, err := fr.bytes(ref, secI64, 8, what)
	return bytesI64(b), err
}

// LoadFlat restores a composed model from an in-memory RAPIDNN2 artifact.
// The returned model borrows every large table — codebooks, activation
// columns, product tables, canary inputs — directly from data, so data must
// stay live (and unmodified) until the model is no longer used. For a
// file-backed mapping with an explicit unmap, use OpenFlat / LoadFile.
func LoadFlat(data []byte) (*Composed, error) {
	return loadFlatData(data, nil)
}

func loadFlatData(data []byte, release func() error) (c *Composed, err error) {
	// Zero-copy views require the 8-byte alignment the format guarantees
	// relative to the file start; realign defensively if the caller's buffer
	// is offset (mmap and Go heap allocations never are).
	if len(data) > 0 && uintptr(unsafe.Pointer(&data[0]))%flatAlign != 0 {
		data = append(make([]byte, 0, len(data)), data...)
	}
	// Layer constructors size tensors from decoded fields; like the gob
	// reader, any internally inconsistent state that slips past the explicit
	// checks must surface as an error, not a panic.
	defer func() {
		if p := recover(); p != nil {
			c, err = nil, fmt.Errorf("composer: corrupted flat artifact: %v", p)
		}
	}()
	secs, err := parseFlat(data)
	if err != nil {
		return nil, err
	}
	var meta flatMeta
	if err := gob.NewDecoder(bytes.NewReader(secs[0].data)).Decode(&meta); err != nil {
		return nil, fmt.Errorf("composer: decoding flat metadata: %w", err)
	}
	fr := &flatReader{secs: secs}
	net := nn.NewNetwork(meta.NetName)
	for i, fl := range meta.Layers {
		ls := layerSnapshot{
			Kind: fl.Kind, Name: fl.Name, Act: fl.Act, Skip: fl.Skip,
			In: fl.In, Out: fl.Out, Geom: fl.Geom, OutC: fl.OutC, PoolKind: fl.PoolKind,
			Hidden: fl.Hidden, Steps: fl.Steps, Size: fl.Size, Rate: fl.Rate,
		}
		for _, f := range []struct {
			dst  *[]float32
			ref  flatRef
			name string
		}{
			{&ls.W, fl.W, "weight"}, {&ls.B, fl.B, "bias"},
			{&ls.Wx, fl.Wx, "input-weight"}, {&ls.Wh, fl.Wh, "hidden-weight"},
		} {
			v, err := fr.f32(f.ref, f.name)
			if err != nil {
				return nil, fmt.Errorf("composer: layer %d (%s): %w", i, fl.Name, err)
			}
			*f.dst = v
		}
		l, err := restoreLayer(ls)
		if err != nil {
			return nil, fmt.Errorf("composer: layer %d (%s): %w", i, fl.Name, err)
		}
		net.Add(l)
	}
	c = &Composed{
		Net:           net,
		BaselineError: meta.BaselineError,
		FinalError:    meta.FinalError,
		TotalEpochs:   meta.TotalEpochs,
	}
	for i, fp := range meta.Plans {
		p := &LayerPlan{
			Kind: LayerKind(fp.Kind), Index: fp.Index, Name: fp.Name,
			Neurons: fp.Neurons, Edges: fp.Edges, RawInputs: fp.RawInputs,
			ProductFracBits: uint(meta.ProductFracBits),
		}
		var err error
		if p.InputCodebook, err = fr.f32(fp.InputCodebook, "input codebook"); err != nil {
			return nil, fmt.Errorf("composer: plan %d (%s): %w", i, fp.Name, err)
		}
		for g, ref := range fp.WeightCodebooks {
			cb, err := fr.f32(ref, fmt.Sprintf("weight codebook %d", g))
			if err != nil {
				return nil, fmt.Errorf("composer: plan %d (%s): %w", i, fp.Name, err)
			}
			p.WeightCodebooks = append(p.WeightCodebooks, cb)
		}
		if len(fp.ChannelCodebook) > 0 {
			p.ChannelCodebook = make([]int, len(fp.ChannelCodebook))
			for ch, b := range fp.ChannelCodebook {
				p.ChannelCodebook[ch] = int(b)
			}
		}
		if fp.ActY.Sec != 0 || fp.ActY.Count != 0 {
			y, err := fr.f32(fp.ActY, "activation Y column")
			if err != nil {
				return nil, fmt.Errorf("composer: plan %d (%s): %w", i, fp.Name, err)
			}
			z, err := fr.f32(fp.ActZ, "activation Z column")
			if err != nil {
				return nil, fmt.Errorf("composer: plan %d (%s): %w", i, fp.Name, err)
			}
			p.ActTable = &quant.ActTable{Name: fp.ActName, Y: y, Z: z}
		}
		for g, ref := range fp.Products {
			tab, err := fr.i64(ref, fmt.Sprintf("product table %d", g))
			if err != nil {
				return nil, fmt.Errorf("composer: plan %d (%s): %w", i, fp.Name, err)
			}
			p.Products = append(p.Products, tab)
		}
		c.Plans = append(c.Plans, p)
	}
	if len(meta.CanaryPreds) > 0 {
		in := net.InSize()
		flat, err := fr.f32(meta.CanaryInputs, "canary inputs")
		if err != nil {
			return nil, fmt.Errorf("composer: %w", err)
		}
		if len(flat) != len(meta.CanaryPreds)*in {
			return nil, fmt.Errorf("composer: %d canary input values for %d canaries of %d features",
				len(flat), len(meta.CanaryPreds), in)
		}
		for ci, pred := range meta.CanaryPreds {
			c.Canaries = append(c.Canaries, Canary{
				Input: flat[ci*in : (ci+1)*in : (ci+1)*in],
				Pred:  pred,
			})
		}
	}
	if err := validateComposed(c); err != nil {
		return nil, err
	}
	c.release = release
	return c, nil
}

// OpenFlat maps a RAPIDNN2 artifact file read-only and restores the model
// over the mapping: every table is a view into the page cache, shared with
// any other process serving the same file. The caller must Close the model
// once nothing built from it (reinterpreted predictors, lowered hardware
// networks) is in use — Close unmaps the file and every borrowed view dies
// with it.
func OpenFlat(path string) (*Composed, error) {
	data, release, err := mmapFile(path)
	if err != nil {
		return nil, fmt.Errorf("composer: mapping %s: %w", path, err)
	}
	c, err := loadFlatData(data, release)
	if err != nil {
		release()
		return nil, err
	}
	return c, nil
}

// LoadFile restores a composed model from disk in whichever format the file
// holds: RAPIDNN2 artifacts are mmap'd zero-copy (OpenFlat), gob artifacts
// are decoded. Callers should Close the model when done; for gob-backed
// models Close is a no-op.
func LoadFile(path string) (*Composed, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("composer: %w", err)
	}
	var head [8]byte
	n, _ := io.ReadFull(f, head[:])
	if n == len(head) && string(head[:]) == flatMagic {
		f.Close()
		return OpenFlat(path)
	}
	defer f.Close()
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("composer: %w", err)
	}
	return Load(f)
}

// Convert transcodes an artifact between formats: it loads from r (either
// magic) and writes to w as RAPIDNN2 when flat is true, as the gob stream
// otherwise. Converting gob→flat composes the product tables the flat
// format embeds; converting flat→gob drops them (the gob schema never
// carried any).
func Convert(r io.Reader, w io.Writer, flat bool) error {
	c, err := Load(r)
	if err != nil {
		return err
	}
	if flat {
		return c.SaveFlat(w)
	}
	return c.Save(w)
}
