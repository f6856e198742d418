// Photo wire decoding. Locate, upload and annotation bodies are the
// largest requests the server reads — a library locate photo is 70–130 KB
// of JSON, a bootstrap sweep several MB — so decoding them is most of
// those handlers' CPU. The decoders here scan the body once, writing
// straight into camera.Photo.
//
// The scan accepts only the canonical shape json.Marshal produces for the
// wire DTOs: exact-case known keys, each at most once; JSON numbers (plain
// digits for integer fields); escape-free ASCII strings; booleans; null
// for a nil slice. Any other body — case-variant or unknown keys, other
// nulls, escapes, repeated keys, out-of-range numbers, syntax errors — is
// decoded by encoding/json into the DTOs and converted by photoFromDTO, so
// acceptance, errors and trailing-data tolerance are encoding/json's.
package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"

	"snaptask/internal/annotation"
	"snaptask/internal/camera"
	"snaptask/internal/geom"
)

// photoBatch is a decoded upload or annotation request: the fields the
// handlers read, with photos and marks already in domain form.
type photoBatch struct {
	TaskID            int
	Bootstrap         bool
	LocX, LocY        float64
	SeedX, SeedY      float64
	HasSeed           bool
	Photos            []camera.Photo
	Marks             []annotation.Annotation
	WorkerID, LeaseID string
}

// readBody reads the whole request body through the admission body cap
// (an oversized body fails with *http.MaxBytesError). The buffer is sized
// from Content-Length, bounded by the cap so a lying header cannot force
// a large allocation.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	n := max(r.ContentLength, 0)
	if limit := s.adm.limitBody(w, r); limit > 0 {
		n = min(n, limit)
	} else {
		n = min(n, maxBodyPrealloc)
	}
	var buf bytes.Buffer
	// MinRead of headroom lets the final read see EOF without growing.
	buf.Grow(int(n) + bytes.MinRead)
	_, err := buf.ReadFrom(r.Body)
	return buf.Bytes(), err
}

// maxBodyPrealloc bounds the up-front buffer of servers running without a
// body cap; larger bodies still read, growing the buffer as they arrive.
const maxBodyPrealloc = 8 << 20

// decodeLocate decodes a LocateRequest body into the photo locate works
// on. The fast path converts only what locate reads — the pose and the
// feature IDs — and leaves the other fields zero.
func decodeLocate(body []byte) (camera.Photo, error) {
	if p, ok := fastLocate(body); ok {
		return p, nil
	}
	var req LocateRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return camera.Photo{}, err
	}
	return photoFromDTO(req.Photo), nil
}

// decodeUpload decodes an UploadRequest body.
func decodeUpload(body []byte) (photoBatch, error) {
	if b, ok := fastBatch(body, uploadKeys); ok {
		return b, nil
	}
	var req UploadRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return photoBatch{}, err
	}
	return photoBatch{
		TaskID: req.TaskID, Bootstrap: req.Bootstrap,
		LocX: req.LocX, LocY: req.LocY, SeedX: req.SeedX, SeedY: req.SeedY,
		HasSeed: req.HasSeed, Photos: photosFromDTO(req.Photos),
		WorkerID: req.WorkerID, LeaseID: req.LeaseID,
	}, nil
}

// decodeAnnotate decodes an AnnotateRequest body.
func decodeAnnotate(body []byte) (photoBatch, error) {
	if b, ok := fastBatch(body, annotateKeys); ok {
		return b, nil
	}
	var req AnnotateRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return photoBatch{}, err
	}
	b := photoBatch{
		TaskID: req.TaskID,
		LocX:   req.LocX, LocY: req.LocY, SeedX: req.SeedX, SeedY: req.SeedY,
		HasSeed: req.HasSeed, Photos: photosFromDTO(req.Photos),
		WorkerID: req.WorkerID, LeaseID: req.LeaseID,
	}
	for _, m := range req.Marks {
		a := annotation.Annotation{WorkerID: m.WorkerID, PhotoIdx: m.PhotoIdx}
		for i, c := range m.Corners {
			a.Corners[i] = geom.V2(c[0], c[1])
		}
		b.Marks = append(b.Marks, a)
	}
	return b, nil
}

func photosFromDTO(ds []PhotoDTO) []camera.Photo {
	photos := make([]camera.Photo, len(ds))
	for i, d := range ds {
		photos[i] = photoFromDTO(d)
	}
	return photos
}

// The canonical keys of each wire object, as json.Marshal names them.
var (
	locateKeys   = []string{"photo"}
	photoKeys    = []string{"poseX", "poseY", "yaw", "hfov", "vfov", "range", "minRange", "eyeHeight", "sharpness", "obs"}
	obsKeys      = []string{"featureId", "u", "v", "dist"}
	uploadKeys   = []string{"taskId", "bootstrap", "locX", "locY", "seedX", "seedY", "hasSeed", "photos", "workerId", "leaseId"}
	annotateKeys = []string{"taskId", "locX", "locY", "seedX", "seedY", "hasSeed", "photos", "marks", "workerId", "leaseId"}
	markKeys     = []string{"workerId", "photoIdx", "corners"}
)

func fastLocate(body []byte) (p camera.Photo, ok bool) {
	sc := wire{b: body}
	ok = sc.object(locateKeys, func(string) bool { return sc.photo(&p, false) })
	return p, ok
}

// fastBatch scans an upload (keys = uploadKeys) or annotation
// (keys = annotateKeys) body, converting every field.
func fastBatch(body []byte, keys []string) (b photoBatch, ok bool) {
	sc := wire{b: body}
	ok = sc.object(keys, func(key string) bool {
		switch key {
		case "taskId":
			return sc.int(&b.TaskID)
		case "bootstrap":
			return sc.bool(&b.Bootstrap)
		case "locX":
			return sc.float(&b.LocX)
		case "locY":
			return sc.float(&b.LocY)
		case "seedX":
			return sc.float(&b.SeedX)
		case "seedY":
			return sc.float(&b.SeedY)
		case "hasSeed":
			return sc.bool(&b.HasSeed)
		case "workerId":
			return sc.string(&b.WorkerID)
		case "leaseId":
			return sc.string(&b.LeaseID)
		case "photos":
			return sc.array(func() bool {
				var p camera.Photo
				if !sc.photo(&p, true) {
					return false
				}
				b.Photos = append(b.Photos, p)
				return true
			})
		default: // "marks"
			return sc.array(func() bool {
				var a annotation.Annotation
				if !sc.mark(&a) {
					return false
				}
				b.Marks = append(b.Marks, a)
				return true
			})
		}
	})
	return b, ok
}

// wire is a cursor over a request body for the canonical fast path. Every
// method reports false as soon as the input leaves the canonical shape;
// the caller then hands the whole body to encoding/json.
type wire struct {
	b []byte
	i int
}

// skipSpace steps over JSON whitespace.
func (w *wire) skipSpace() {
	if w.i < len(w.b) && w.b[w.i] > ' ' {
		return // canonical bodies carry no whitespace
	}
	for w.i < len(w.b) {
		switch w.b[w.i] {
		case ' ', '\t', '\n', '\r':
			w.i++
		default:
			return
		}
	}
}

// eat consumes c, after optional whitespace, if it is next.
func (w *wire) eat(c byte) bool {
	w.skipSpace()
	if w.i < len(w.b) && w.b[w.i] == c {
		w.i++
		return true
	}
	return false
}

// object scans one object whose keys must come from keys, each at most
// once; field consumes the value of the key it is handed (the canonical
// string from keys). Nothing after the object is read, as encoding/json's
// Decoder reads nothing after the top-level value.
func (w *wire) object(keys []string, field func(key string) bool) bool {
	if !w.eat('{') {
		return false
	}
	if w.eat('}') {
		return true
	}
	var seen uint32
	for {
		name, ok := w.str()
		if !ok || !w.eat(':') {
			return false
		}
		k := 0
		for k < len(keys) && keys[k] != string(name) {
			k++
		}
		if k == len(keys) || seen&(1<<k) != 0 {
			return false
		}
		seen |= 1 << k
		if !field(keys[k]) {
			return false
		}
		if !w.eat(',') {
			return w.eat('}')
		}
	}
}

// array scans one array, calling elem to consume each element. null, which
// json.Marshal writes for a nil slice, is an array without elements.
func (w *wire) array(elem func() bool) bool {
	if w.literal("null") {
		return true
	}
	if !w.eat('[') {
		return false
	}
	if w.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !w.eat(',') {
			return w.eat(']')
		}
	}
}

// photo scans one PhotoDTO object into p. With full unset only the pose
// and the feature IDs are converted; every other number is checked and
// skipped.
func (w *wire) photo(p *camera.Photo, full bool) bool {
	return w.object(photoKeys, func(key string) bool {
		switch key {
		case "poseX":
			return w.float(&p.Pose.Pos.X)
		case "poseY":
			return w.float(&p.Pose.Pos.Y)
		case "yaw":
			return w.float(&p.Pose.Yaw)
		case "obs":
			return w.observations(&p.Obs, full)
		}
		if !full {
			return w.skipFloat()
		}
		switch key {
		case "hfov":
			return w.float(&p.Intrinsics.HFOV)
		case "vfov":
			return w.float(&p.Intrinsics.VFOV)
		case "range":
			return w.float(&p.Intrinsics.Range)
		case "minRange":
			return w.float(&p.Intrinsics.MinRange)
		case "eyeHeight":
			return w.float(&p.Intrinsics.EyeHeight)
		default: // "sharpness"
			return w.float(&p.Sharpness)
		}
	})
}

// observations scans the obs array. An empty array leaves *obs nil, as
// photoFromDTO does.
func (w *wire) observations(obs *[]camera.Observation, full bool) bool {
	var out []camera.Observation
	ok := w.array(func() bool {
		var o camera.Observation
		if !w.object(obsKeys, func(key string) bool {
			switch key {
			case "featureId":
				return w.uint(&o.FeatureID)
			case "u":
				return w.floatOrSkip(&o.U, full)
			case "v":
				return w.floatOrSkip(&o.V, full)
			default: // "dist"
				return w.floatOrSkip(&o.Dist, full)
			}
		}) {
			return false
		}
		out = append(out, o)
		return true
	})
	*obs = out
	return ok
}

// mark scans one AnnotationDTO object into a. Corners must be exactly four
// pairs; encoding/json's padding and truncation of other lengths is left
// to it.
func (w *wire) mark(a *annotation.Annotation) bool {
	return w.object(markKeys, func(key string) bool {
		switch key {
		case "workerId":
			return w.int(&a.WorkerID)
		case "photoIdx":
			return w.int(&a.PhotoIdx)
		}
		if !w.eat('[') {
			return false
		}
		for i := range a.Corners {
			if (i > 0 && !w.eat(',')) || !w.eat('[') ||
				!w.float(&a.Corners[i].X) || !w.eat(',') ||
				!w.float(&a.Corners[i].Y) || !w.eat(']') {
				return false
			}
		}
		return w.eat(']')
	})
}

// str scans an escape-free ASCII string and returns its contents.
func (w *wire) str() ([]byte, bool) {
	if !w.eat('"') {
		return nil, false
	}
	for j := w.i; j < len(w.b); j++ {
		switch c := w.b[j]; {
		case c == '"':
			s := w.b[w.i:j]
			w.i = j + 1
			return s, true
		case c < 0x20 || c >= 0x7f || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (w *wire) string(dst *string) bool {
	s, ok := w.str()
	*dst = string(s)
	return ok
}

func (w *wire) bool(dst *bool) bool {
	switch {
	case w.literal("true"):
		*dst = true
	case w.literal("false"):
		*dst = false
	default:
		return false
	}
	return true
}

// literal consumes lit, after optional whitespace, if it is next.
func (w *wire) literal(lit string) bool {
	w.skipSpace()
	if !bytes.HasPrefix(w.b[w.i:], []byte(lit)) {
		return false
	}
	w.i += len(lit)
	return true
}

// number scans one token of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns it with
// whether it has a fraction and whether it has an exponent.
func (w *wire) number() (tok []byte, frac, exp, ok bool) {
	w.skipSpace()
	start := w.i
	b := w.b
	i := w.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for i++; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		}
	default:
		return nil, false, false, false
	}
	if i < len(b) && b[i] == '.' {
		frac = true
		i++
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return nil, false, false, false
		}
		for i++; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		exp = true
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return nil, false, false, false
		}
		for i++; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		}
	}
	w.i = i
	return b[start:i], frac, exp, true
}

// float scans a number into dst with strconv.ParseFloat, the conversion
// encoding/json uses, so the value is bit-identical. Out-of-range numbers
// are not canonical.
func (w *wire) float(dst *float64) bool {
	tok, _, _, ok := w.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	*dst = f
	return err == nil
}

// maxPlainFloatLen is the longest number token without an exponent that
// needs no range check: it has at most 308 integer digits, so it is below
// 1e308 and parses as a finite float64.
const maxPlainFloatLen = 308

// skipFloat checks a number that the caller does not read. Only a token
// that could overflow float64 — one with an exponent, or a very long one —
// is converted, because encoding/json rejects those.
func (w *wire) skipFloat() bool {
	tok, _, exp, ok := w.number()
	if !ok {
		return false
	}
	if !exp && len(tok) <= maxPlainFloatLen {
		return true
	}
	_, err := strconv.ParseFloat(string(tok), 64)
	return err == nil
}

func (w *wire) floatOrSkip(dst *float64, full bool) bool {
	if full {
		return w.float(dst)
	}
	return w.skipFloat()
}

// uint scans a plain-digit number into a uint64. Signs, fractions,
// exponents and overflow are left to encoding/json, which rejects them.
func (w *wire) uint(dst *uint64) bool {
	tok, frac, exp, ok := w.number()
	if !ok || frac || exp || tok[0] == '-' {
		return false
	}
	var v uint64
	for _, c := range tok {
		d := uint64(c - '0')
		if v > (1<<64-1-d)/10 {
			return false
		}
		v = v*10 + d
	}
	*dst = v
	return true
}

// int scans an integer number into an int, as strconv.ParseInt would.
func (w *wire) int(dst *int) bool {
	tok, frac, exp, ok := w.number()
	if !ok || frac || exp {
		return false
	}
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	*dst = int(v)
	return err == nil
}
