package sim

// This file is the durable payload codec: the one encoding of a completed
// point that ResultStore persists, GET /v1/store/{key} serves to fleet
// peers, and regsimstore lists. internal/store treats the bytes as opaque.
//
// Layout (StorePayloadVersion 2):
//
//	byte 0     StorePayloadVersion
//	bytes 1-8  layout hash, little-endian uint64
//	then       the pipeline.Result, positionally
//	then       the RunRecord, positionally
//
// Positional encoding writes a struct's exported fields in declaration
// order (skipping json:"-", as JSON does), with no names or tags:
//
//	bool, uint8                1 byte (a bool byte is 0 or 1)
//	int, int64, uint, uint64   8 bytes, little-endian
//	float64                    8 bytes, the IEEE-754 bits
//	string                     uint32 length, then the bytes
//	array                      its elements
//	pointer                    presence byte (0 nil, 1 set), then the element
//	slice                      presence byte (0 nil, 1 set), uint32 count,
//	                           then the elements
//
// Those are the kinds the two types use; any other panics when the plan
// is built, so a new field of another kind fails the tests.
//
// The layout hash covers the name, kind and order of every encoded field,
// recursively, so any edit to either type's shape changes it and old
// payloads stop decoding instead of being misread. Unexported fields are
// not encoded and decode as zero, exactly as the JSON payload of version 1
// behaved; nil and empty slices and nil and set pointers stay apart. The
// decoder is total: any byte string yields a value or an error.

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"

	"regcache/internal/pipeline"
)

// StorePayloadVersion versions the stored value encoding. Version 1 was
// JSON; version 2 is the positional binary layout above. A payload of any
// other version, or with a different layout hash, does not decode: the
// result store reads it as StoreGetCorrupt, re-simulates, and the fresh
// append supersedes it.
const StorePayloadVersion = 2

// payloadHeaderLen is the version byte plus the layout hash.
const payloadHeaderLen = 1 + 8

// payloadCodec is the compiled encoding of both payload sections.
type payloadCodec struct {
	result, record *plan
	hash           uint64
}

// storedPayload builds the payload codec once per process. An unsupported
// kind anywhere in pipeline.Result or RunRecord panics here, on first use.
var storedPayload = sync.OnceValue(func() payloadCodec {
	plans, hash := compilePlans(reflect.TypeFor[pipeline.Result](), reflect.TypeFor[RunRecord]())
	return payloadCodec{result: plans[0], record: plans[1], hash: hash}
})

// EncodeStoredPayload encodes one completed point in the durable store's
// payload form — the bytes ResultStore.Put appends and GET /v1/store/{key}
// serves.
func EncodeStoredPayload(bench string, s Scheme, o Options, res pipeline.Result) []byte {
	rec := NewRunRecord(bench, s, o.withDefaults(), res)
	return encodePayload(&rec, &res)
}

func encodePayload(rec *RunRecord, res *pipeline.Result) []byte {
	c := storedPayload()
	b := make([]byte, payloadHeaderLen, 2048)
	b[0] = StorePayloadVersion
	binary.LittleEndian.PutUint64(b[1:], c.hash)
	b = c.result.encode(b, reflect.ValueOf(res).Elem())
	return c.record.encode(b, reflect.ValueOf(rec).Elem())
}

// DecodeStoredPayload decodes a stored payload into its curated record and
// the full pipeline.Result, so a peer store hit is indistinguishable from
// a local one.
func DecodeStoredPayload(data []byte) (RunRecord, pipeline.Result, error) {
	var (
		rec RunRecord
		res pipeline.Result
	)
	rest, err := decodePayloadResult(data, &res)
	if err == nil {
		r := payloadReader{rest}
		err = storedPayload().record.decode(&r, reflect.ValueOf(&rec).Elem())
		if err == nil && len(r.b) > 0 {
			err = fmt.Errorf("%d trailing bytes", len(r.b))
		}
	}
	if err != nil {
		return RunRecord{}, pipeline.Result{}, fmt.Errorf("sim: decode stored payload: %w", err)
	}
	return rec, res, nil
}

// decodePayloadResult checks the header and decodes the result section
// into res, returning the record section undecoded (a store hit needs only
// the result).
func decodePayloadResult(data []byte, res *pipeline.Result) ([]byte, error) {
	c := storedPayload()
	if len(data) < payloadHeaderLen {
		return nil, fmt.Errorf("%d-byte payload, shorter than its header", len(data))
	}
	if data[0] != StorePayloadVersion {
		return nil, fmt.Errorf("payload version byte %#02x, want %d", data[0], StorePayloadVersion)
	}
	if h := binary.LittleEndian.Uint64(data[1:]); h != c.hash {
		return nil, fmt.Errorf("payload layout %016x, want %016x", h, c.hash)
	}
	r := payloadReader{data[payloadHeaderLen:]}
	if err := c.result.decode(&r, reflect.ValueOf(res).Elem()); err != nil {
		return nil, err
	}
	return r.b, nil
}

// plan is the compiled positional encoding of one Go type.
type plan struct {
	kind   reflect.Kind
	min    int // fewest bytes any value encodes to
	elem   *plan
	length int // array length
	fields []planField
	layout string // canonical shape description, hashed into the header
}

type planField struct {
	index int
	plan  *plan
}

// compilePlans compiles each type's plan, sharing nested types' plans,
// and returns the layout hash over all of them.
func compilePlans(types ...reflect.Type) ([]*plan, uint64) {
	pb := planBuilder{}
	plans := make([]*plan, len(types))
	layouts := make([]string, len(types))
	for i, t := range types {
		plans[i] = pb.plan(t)
		layouts[i] = plans[i].layout
	}
	sum := sha256.Sum256([]byte(strings.Join(layouts, "\n")))
	return plans, binary.LittleEndian.Uint64(sum[:8])
}

// planBuilder memoizes plans by type; a nil entry marks a type whose plan
// is still being built, so a recursive type is caught instead of looping.
type planBuilder map[reflect.Type]*plan

func (pb planBuilder) plan(t reflect.Type) *plan {
	if p, ok := pb[t]; ok {
		if p == nil {
			panic(fmt.Sprintf("sim: payload codec: recursive type %s", t))
		}
		return p
	}
	pb[t] = nil
	p := &plan{kind: t.Kind(), layout: t.Kind().String()}
	switch p.kind {
	case reflect.Bool, reflect.Uint8:
		p.min = 1
	case reflect.Int, reflect.Int64, reflect.Uint, reflect.Uint64, reflect.Float64:
		p.min = 8
	case reflect.String:
		p.min = 4
	case reflect.Array:
		p.elem, p.length = pb.plan(t.Elem()), t.Len()
		p.min = p.length * p.elem.min
		p.layout = fmt.Sprintf("[%d]%s", p.length, p.elem.layout)
	case reflect.Slice:
		p.elem, p.min = pb.plan(t.Elem()), 1
		if p.elem.min == 0 {
			// A count could then claim any number of elements from no bytes.
			panic(fmt.Sprintf("sim: payload codec: slice of zero-width %s", t.Elem()))
		}
		p.layout = "[]" + p.elem.layout
	case reflect.Pointer:
		p.elem, p.min = pb.plan(t.Elem()), 1
		p.layout = "*" + p.elem.layout
	case reflect.Struct:
		var sb strings.Builder
		sb.WriteByte('{')
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.Anonymous {
				// JSON flattens embedded fields, even unexported ones'.
				panic(fmt.Sprintf("sim: payload codec: embedded field %s.%s", t, f.Name))
			}
			if !f.IsExported() || f.Tag.Get("json") == "-" {
				continue
			}
			fp := pb.plan(f.Type)
			p.fields = append(p.fields, planField{index: i, plan: fp})
			p.min += fp.min
			fmt.Fprintf(&sb, "%s %s;", f.Name, fp.layout)
		}
		sb.WriteByte('}')
		p.layout = sb.String()
	default:
		panic(fmt.Sprintf("sim: payload codec: unsupported kind %s (%s)", p.kind, t))
	}
	pb[t] = p
	return p
}

func (p *plan) encode(b []byte, v reflect.Value) []byte {
	switch p.kind {
	case reflect.Struct:
		for _, f := range p.fields {
			b = f.plan.encode(b, v.Field(f.index))
		}
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Uint8:
		return append(b, byte(v.Uint()))
	case reflect.Int, reflect.Int64:
		return binary.LittleEndian.AppendUint64(b, uint64(v.Int()))
	case reflect.Uint, reflect.Uint64:
		return binary.LittleEndian.AppendUint64(b, v.Uint())
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		s := v.String()
		return append(appendCount(b, len(s)), s...)
	case reflect.Array:
		for i := 0; i < p.length; i++ {
			b = p.elem.encode(b, v.Index(i))
		}
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, 0)
		}
		return p.elem.encode(append(b, 1), v.Elem())
	case reflect.Slice:
		if v.IsNil() {
			return append(b, 0)
		}
		b = appendCount(append(b, 1), v.Len())
		for i := 0; i < v.Len(); i++ {
			b = p.elem.encode(b, v.Index(i))
		}
	}
	return b
}

func appendCount(b []byte, n int) []byte {
	if uint64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("sim: payload codec: length %d overflows its uint32 prefix", n))
	}
	return binary.LittleEndian.AppendUint32(b, uint32(n))
}

var (
	errPayloadTruncated = errors.New("truncated")
	errPayloadFlag      = errors.New("bool or presence byte not 0 or 1")
	errPayloadCount     = errors.New("length prefix exceeds the remaining bytes")
	errPayloadRange     = errors.New("integer overflows its field")
)

// payloadReader consumes a payload front to back.
type payloadReader struct{ b []byte }

func (r *payloadReader) next(n int) ([]byte, error) {
	if n > len(r.b) {
		return nil, errPayloadTruncated
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p, nil
}

func (r *payloadReader) u8() (byte, error) {
	p, err := r.next(1)
	if err != nil {
		return 0, err
	}
	return p[0], nil
}

func (r *payloadReader) u64() (uint64, error) {
	p, err := r.next(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(p), nil
}

func (r *payloadReader) flag() (bool, error) {
	c, err := r.u8()
	if err == nil && c > 1 {
		err = errPayloadFlag
	}
	return c == 1, err
}

// count reads a length prefix and bounds it by the elements of elemMin
// (> 0) bytes the rest of the payload could hold, so a lying prefix cannot
// make the decoder allocate more than the input justifies.
func (r *payloadReader) count(elemMin int) (int, error) {
	p, err := r.next(4)
	if err != nil {
		return 0, err
	}
	n := binary.LittleEndian.Uint32(p)
	if uint64(n) > uint64(len(r.b)/elemMin) {
		return 0, errPayloadCount
	}
	return int(n), nil
}

func (p *plan) decode(r *payloadReader, v reflect.Value) error {
	switch p.kind {
	case reflect.Struct:
		for _, f := range p.fields {
			if err := f.plan.decode(r, v.Field(f.index)); err != nil {
				return err
			}
		}
	case reflect.Bool:
		set, err := r.flag()
		if err != nil {
			return err
		}
		v.SetBool(set)
	case reflect.Uint8:
		c, err := r.u8()
		if err != nil {
			return err
		}
		v.SetUint(uint64(c))
	case reflect.Int, reflect.Int64:
		u, err := r.u64()
		if err != nil {
			return err
		}
		if v.OverflowInt(int64(u)) { // int on a 32-bit platform
			return errPayloadRange
		}
		v.SetInt(int64(u))
	case reflect.Uint, reflect.Uint64:
		u, err := r.u64()
		if err != nil {
			return err
		}
		if v.OverflowUint(u) {
			return errPayloadRange
		}
		v.SetUint(u)
	case reflect.Float64:
		u, err := r.u64()
		if err != nil {
			return err
		}
		v.SetFloat(math.Float64frombits(u))
	case reflect.String:
		n, err := r.count(1)
		if err != nil {
			return err
		}
		s, _ := r.next(n)
		v.SetString(string(s))
	case reflect.Array:
		for i := 0; i < p.length; i++ {
			if err := p.elem.decode(r, v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Pointer:
		set, err := r.flag()
		if err != nil || !set {
			v.SetZero()
			return err
		}
		e := reflect.New(v.Type().Elem())
		if err := p.elem.decode(r, e.Elem()); err != nil {
			return err
		}
		v.Set(e)
	case reflect.Slice:
		set, err := r.flag()
		if err != nil || !set {
			v.SetZero()
			return err
		}
		n, err := r.count(p.elem.min)
		if err != nil {
			return err
		}
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			if err := p.elem.decode(r, s.Index(i)); err != nil {
				return err
			}
		}
		v.Set(s)
	}
	return nil
}
