package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"

	"snaptask/internal/annotation"
	"snaptask/internal/camera"
	"snaptask/internal/core"
	"snaptask/internal/venue"
)

var (
	captureOnce sync.Once
	captureErr  error
	// captures holds one bootstrap capture per venue, keyed by venue name.
	captures map[string][]camera.Photo
)

// wireCaptures returns the bootstrap capture of the small room and of the
// library, the venues whose photos the wire carries.
func wireCaptures(tb testing.TB) map[string][]camera.Photo {
	tb.Helper()
	captureOnce.Do(func() {
		captures = make(map[string][]camera.Photo)
		for name, build := range map[string]func() (*venue.Venue, error){
			"small": venue.SmallRoom, "library": venue.Library,
		} {
			v, err := build()
			if err != nil {
				captureErr = err
				return
			}
			w := camera.NewWorld(v, v.GenerateFeatures(rand.New(rand.NewSource(42))))
			photos, err := core.BootstrapCapture(w, v, camera.DefaultIntrinsics(), rand.New(rand.NewSource(7)))
			if err != nil {
				captureErr = err
				return
			}
			captures[name] = photos
		}
	})
	if captureErr != nil {
		tb.Fatal(captureErr)
	}
	return captures
}

func mustMarshal(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func locateBody(tb testing.TB, p camera.Photo) []byte {
	return mustMarshal(tb, LocateRequest{Photo: PhotoToDTO(p)})
}

func uploadBody(tb testing.TB, photos []camera.Photo) []byte {
	req := UploadRequest{TaskID: 3, LocX: 1.25, LocY: -2, SeedX: 0.5, SeedY: 7, HasSeed: true,
		WorkerID: "w-1", LeaseID: "lease-9"}
	for _, p := range photos {
		req.Photos = append(req.Photos, PhotoToDTO(p))
	}
	return mustMarshal(tb, req)
}

func annotateBody(tb testing.TB, photos []camera.Photo) []byte {
	req := AnnotateRequest{TaskID: 4, LocX: 3, LocY: 4, WorkerID: "w-2", LeaseID: "lease-3",
		Marks: []AnnotationDTO{
			{WorkerID: 1, PhotoIdx: 0, Corners: [4][2]float64{{0.1, 0.2}, {0.3, 0.25}, {0.31, 0.6}, {0.09, 0.61}}},
			{WorkerID: -2, PhotoIdx: 1, Corners: [4][2]float64{{1e-9, -0.0}, {1, 2}, {3, 4}, {5, 6e22}}},
		}}
	for _, p := range photos {
		req.Photos = append(req.Photos, PhotoToDTO(p))
	}
	return mustMarshal(tb, req)
}

// The oracles: encoding/json into the wire DTOs, then photoFromDTO — the
// decode the handlers ran before the canonical fast path.

func oracleLocate(body []byte) (camera.Photo, error) {
	var req LocateRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return photoFromDTO(req.Photo), err
}

func oracleBatch(body []byte, annotate bool) (photoBatch, error) {
	var (
		b   photoBatch
		err error
		dto []PhotoDTO
	)
	if annotate {
		var req AnnotateRequest
		err = json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		b = photoBatch{TaskID: req.TaskID, LocX: req.LocX, LocY: req.LocY,
			SeedX: req.SeedX, SeedY: req.SeedY, HasSeed: req.HasSeed,
			WorkerID: req.WorkerID, LeaseID: req.LeaseID}
		dto = req.Photos
		for _, m := range req.Marks {
			a := annotation.Annotation{WorkerID: m.WorkerID, PhotoIdx: m.PhotoIdx}
			for i, c := range m.Corners {
				a.Corners[i].X, a.Corners[i].Y = c[0], c[1]
			}
			b.Marks = append(b.Marks, a)
		}
	} else {
		var req UploadRequest
		err = json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		b = photoBatch{TaskID: req.TaskID, Bootstrap: req.Bootstrap, LocX: req.LocX, LocY: req.LocY,
			SeedX: req.SeedX, SeedY: req.SeedY, HasSeed: req.HasSeed,
			WorkerID: req.WorkerID, LeaseID: req.LeaseID}
		dto = req.Photos
	}
	for _, d := range dto {
		b.Photos = append(b.Photos, photoFromDTO(d))
	}
	return b, err
}

// sameBits compares floats by their bit patterns, so -0 and NaN payloads
// count.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// diffLocate compares what locate reads: the pose and the feature IDs.
func diffLocate(got, want camera.Photo) error {
	if !sameBits(got.Pose.Pos.X, want.Pose.Pos.X) || !sameBits(got.Pose.Pos.Y, want.Pose.Pos.Y) ||
		!sameBits(got.Pose.Yaw, want.Pose.Yaw) {
		return fmt.Errorf("pose %+v, want %+v", got.Pose, want.Pose)
	}
	if len(got.Obs) != len(want.Obs) {
		return fmt.Errorf("%d observations, want %d", len(got.Obs), len(want.Obs))
	}
	for i := range got.Obs {
		if got.Obs[i].FeatureID != want.Obs[i].FeatureID {
			return fmt.Errorf("obs %d: feature %d, want %d", i, got.Obs[i].FeatureID, want.Obs[i].FeatureID)
		}
	}
	return nil
}

func diffPhoto(got, want camera.Photo) error {
	gf := []float64{got.Pose.Pos.X, got.Pose.Pos.Y, got.Pose.Yaw, got.Intrinsics.HFOV, got.Intrinsics.VFOV,
		got.Intrinsics.Range, got.Intrinsics.MinRange, got.Intrinsics.EyeHeight, got.Sharpness}
	wf := []float64{want.Pose.Pos.X, want.Pose.Pos.Y, want.Pose.Yaw, want.Intrinsics.HFOV, want.Intrinsics.VFOV,
		want.Intrinsics.Range, want.Intrinsics.MinRange, want.Intrinsics.EyeHeight, want.Sharpness}
	for i := range gf {
		if !sameBits(gf[i], wf[i]) {
			return fmt.Errorf("field %d: %v, want %v", i, gf[i], wf[i])
		}
	}
	if got.ID != want.ID || len(got.Obs) != len(want.Obs) {
		return fmt.Errorf("id %d with %d obs, want id %d with %d", got.ID, len(got.Obs), want.ID, len(want.Obs))
	}
	for i, o := range got.Obs {
		w := want.Obs[i]
		if o.FeatureID != w.FeatureID || !sameBits(o.U, w.U) || !sameBits(o.V, w.V) || !sameBits(o.Dist, w.Dist) {
			return fmt.Errorf("obs %d: %+v, want %+v", i, o, w)
		}
	}
	return nil
}

func diffBatch(got, want photoBatch) error {
	if got.TaskID != want.TaskID || got.Bootstrap != want.Bootstrap || got.HasSeed != want.HasSeed ||
		got.WorkerID != want.WorkerID || got.LeaseID != want.LeaseID ||
		!sameBits(got.LocX, want.LocX) || !sameBits(got.LocY, want.LocY) ||
		!sameBits(got.SeedX, want.SeedX) || !sameBits(got.SeedY, want.SeedY) {
		return fmt.Errorf("request fields differ")
	}
	if len(got.Photos) != len(want.Photos) || len(got.Marks) != len(want.Marks) {
		return fmt.Errorf("%d photos, %d marks; want %d, %d",
			len(got.Photos), len(got.Marks), len(want.Photos), len(want.Marks))
	}
	for i := range got.Photos {
		if err := diffPhoto(got.Photos[i], want.Photos[i]); err != nil {
			return fmt.Errorf("photo %d: %w", i, err)
		}
	}
	for i, m := range got.Marks {
		w := want.Marks[i]
		if m.WorkerID != w.WorkerID || m.PhotoIdx != w.PhotoIdx {
			return fmt.Errorf("mark %d: %+v, want %+v", i, m, w)
		}
		for j := range m.Corners {
			if !sameBits(m.Corners[j].X, w.Corners[j].X) || !sameBits(m.Corners[j].Y, w.Corners[j].Y) {
				return fmt.Errorf("mark %d corner %d: %v, want %v", i, j, m.Corners[j], w.Corners[j])
			}
		}
	}
	return nil
}

// checkDecoders runs the three body decoders on body and compares each
// with its oracle: the same accept/reject outcome and, when accepted, the
// same decoded request.
func checkDecoders(t *testing.T, body []byte) {
	t.Helper()
	gotP, gotErr := decodeLocate(body)
	wantP, wantErr := oracleLocate(body)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("locate: err %v, oracle err %v", gotErr, wantErr)
	}
	if gotErr == nil {
		if err := diffLocate(gotP, wantP); err != nil {
			t.Fatalf("locate: %v", err)
		}
	}
	for _, annotate := range []bool{false, true} {
		decode := decodeUpload
		if annotate {
			decode = decodeAnnotate
		}
		got, gotErr := decode(body)
		want, wantErr := oracleBatch(body, annotate)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("annotate=%v: err %v, oracle err %v", annotate, gotErr, wantErr)
		}
		if gotErr == nil {
			if err := diffBatch(got, want); err != nil {
				t.Fatalf("annotate=%v: %v", annotate, err)
			}
		}
	}
}

// FuzzDecodePhotoRequests is the differential test of the canonical fast
// path: every body decodes exactly as encoding/json plus photoFromDTO
// decode it, for locate, upload and annotation requests alike.
func FuzzDecodePhotoRequests(f *testing.F) {
	// Seeds keep a few observations per photo: the fuzzer mutates and
	// minimises small inputs far faster, and full-size canonical bodies
	// are checked by TestCanonicalBodiesTakeFastPath.
	var canonical [][]byte
	for _, name := range []string{"small", "library"} {
		photos := slices.Clone(wireCaptures(f)[name][:2])
		for i := range photos {
			photos[i].Obs = photos[i].Obs[:min(len(photos[i].Obs), 3)]
		}
		canonical = append(canonical,
			locateBody(f, photos[0]), uploadBody(f, photos[:1]), annotateBody(f, photos))
	}
	for _, b := range canonical {
		f.Add(b)
		f.Add(b[:len(b)/2])                          // truncated
		f.Add(append(bytes.Clone(b), " garbage"...)) // trailing data
	}
	for _, s := range []string{
		"", "null", "{}", "[]", `{"photo":null}`, `{"photo":{"obs":null}}`, `{"photos":null}`,
		`{"photo":{"obs":[]}}`, `{"photos":[]}`, `{"photos":[{"obs":[]}]}`, `{"marks":[]}`,
		// Case-variant and unknown keys.
		`{"Photo":{"posex":1,"OBS":[{"featureid":5}]}}`, `{"photos":[{"poseX":1}],"TaskID":2,"extra":[1,{"a":null}]}`,
		// Escapes.
		`{"ph\u006fto":{"poseX":1}}`, `{"photos":[{"obs":[]}],"workerId":"w\u0031","leaseId":"l\"1"}`,
		`{"photos":[{}],"workerId":"caf` + "é" + `"}`,
		// Repeated keys.
		`{"photo":{"poseX":1,"poseX":2}}`, `{"photo":{"obs":[{"featureId":1,"featureId":2}]}}`,
		`{"photos":[{"obs":[{"featureId":1,"u":0.5}]}],"photos":[{"obs":[{"featureId":2}]}]}`,
		// Numbers encoding/json rejects or treats specially.
		`{"photo":{"poseX":1e400}}`, `{"photo":{"hfov":1e400}}`, `{"photo":{"obs":[{"featureId":1,"u":1e400}]}}`,
		`{"photo":{"obs":[{"featureId":1,"u":` + "1" + strings.Repeat("0", 399) + `}]}}`,
		`{"photo":{"obs":[{"featureId":1,"u":` + "0." + strings.Repeat("0", 399) + `1}]}}`,
		`{"photo":{"obs":[{"featureId":1e3}]}}`, `{"photo":{"obs":[{"featureId":-1}]}}`,
		`{"photo":{"obs":[{"featureId":18446744073709551616}]}}`,
		`{"photo":{"obs":[{"featureId":18446744073709551615}]}}`,
		`{"photo":{"obs":[{"featureId":-0}]}}`, `{"photo":{"poseX":-0,"yaw":-0.0}}`,
		`{"photo":{"obs":[{"featureId":1.0}]}}`, `{"photo":{"obs":[{"featureId":01}]}}`,
		`{"photo":{"poseX":1.}}`, `{"photo":{"poseX":.5}}`, `{"photo":{"poseX":+1}}`, `{"photo":{"poseX":1e}}`,
		`{"photos":[{}],"taskId":-0,"bootstrap":true,"hasSeed":false}`, `{"photos":[{}],"taskId":1e2}`,
		`{"photos":[{}],"taskId":9223372036854775808}`, `{"photos":[{}],"bootstrap":tru}`,
		`{"marks":[{"workerId":1,"photoIdx":2,"corners":[[1,2],[3,4],[5,6]]}],"photos":[{}]}`,
		`{"marks":[{"corners":[[1,2],[3,4],[5,6],[7,8],[9,10]]}],"photos":[{}]}`,
		`{"marks":[{"corners":[[1,2,3],[3,4],[5,6],[7,8]]}],"photos":[{}]}`,
		" \t\r\n{ \"photo\" : { \"poseX\" : 2 , \"obs\" : [ { \"featureId\" : 7 } ] } } ",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(checkDecoders)
}

// TestCanonicalBodiesTakeFastPath checks the bodies the client sends —
// json.Marshal of the wire DTOs on real captures — are decoded by the
// scanner itself, not handed to encoding/json, and decode exactly as the
// oracle does.
func TestCanonicalBodiesTakeFastPath(t *testing.T) {
	for name, photos := range wireCaptures(t) {
		lb := locateBody(t, photos[0])
		p, ok := fastLocate(lb)
		want, err := oracleLocate(lb)
		if !ok || err != nil {
			t.Fatalf("%s locate: fast path ok=%v, oracle err %v", name, ok, err)
		}
		if err := diffLocate(p, want); err != nil {
			t.Fatalf("%s locate: %v", name, err)
		}
		for _, annotate := range []bool{false, true} {
			body, keys := uploadBody(t, photos), uploadKeys
			if annotate {
				body, keys = annotateBody(t, photos), annotateKeys
			}
			got, ok := fastBatch(body, keys)
			want, err := oracleBatch(body, annotate)
			if !ok || err != nil {
				t.Fatalf("%s annotate=%v: fast path ok=%v, oracle err %v", name, annotate, ok, err)
			}
			if err := diffBatch(got, want); err != nil {
				t.Fatalf("%s annotate=%v: %v", name, annotate, err)
			}
		}
	}
}

// TestBodyCapSheds413 sends bodies over the admission body cap to locate
// and upload: each answers 413 and counts a body_limit shed.
func TestBodyCapSheds413(t *testing.T) {
	ts, _ := newAdmissionTestServer(t, AdmissionConfig{MaxBodyBytes: 4 << 10})
	photo := wireCaptures(t)["small"][0]
	for i, c := range []struct{ path, body string }{
		{"/v1/locate", string(locateBody(t, photo))},
		{"/v1/photos", string(uploadBody(t, []camera.Photo{photo}))},
	} {
		resp, body := postJSONStatus(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(body, ShedBodyLimit) {
			t.Fatalf("%s with %d bytes: code %d, body %s", c.path, len(c.body), resp.StatusCode, body)
		}
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		mb, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		want := fmt.Sprintf(`snaptask_requests_shed_total{cause="body_limit"} %d`, i+1)
		if !strings.Contains(string(mb), want) {
			t.Fatalf("after %s: metrics exposition missing %q", c.path, want)
		}
	}
}

// TestMalformedBodies400 checks truncated and invalid JSON answers 400 on
// all three photo endpoints, under the body cap and without one.
func TestMalformedBodies400(t *testing.T) {
	capped, _ := newAdmissionTestServer(t, AdmissionConfig{MaxBodyBytes: 8 << 20})
	uncapped, _, _, _ := newTestServer(t)
	photo := wireCaptures(t)["small"][0]
	endpoints := []struct {
		path string
		good []byte
		// wrap places one photo object where the endpoint reads photos.
		wrap string
	}{
		{"/v1/locate", locateBody(t, photo), `{"photo":%s}`},
		{"/v1/photos", uploadBody(t, []camera.Photo{photo}), `{"photos":[%s]}`},
		{"/v1/annotations", annotateBody(t, []camera.Photo{photo}), `{"photos":[%s]}`},
	}
	for _, url := range []string{capped.URL, uncapped.URL} {
		for _, e := range endpoints {
			path := e.path
			for _, bad := range []string{
				string(e.good[:len(e.good)-len(e.good)/3]), // truncated
				"", "{", "[1,2]", `{"photo":{"poseX":1,}}`,
				fmt.Sprintf(e.wrap, `{"obs":[{"featureId":"1"}]}`),
				fmt.Sprintf(e.wrap, `{"poseX":1e400}`),
				fmt.Sprintf(e.wrap, `{"obs":[{"featureId":1,"u":1e400}]}`),
			} {
				resp, body := postJSONStatus(t, url+path, bad)
				if resp.StatusCode != http.StatusBadRequest {
					t.Errorf("%s %.40q: code %d, body %s", path, bad, resp.StatusCode, body)
				}
			}
		}
	}
}

// trimmedLocate is the strongest simple alternative to the scanner: an
// encoding/json target holding only the fields locate reads.
type trimmedLocate struct {
	Photo struct {
		PoseX, PoseY, Yaw float64
		Obs               []struct {
			FeatureID uint64 `json:"featureId"`
		} `json:"obs"`
	} `json:"photo"`
}

// trimmedUpload drops nothing an upload reads, so its only saving over
// UploadRequest is skipping the DTO-to-photo copy: it decodes into
// camera-shaped structs directly.
type trimmedUpload struct {
	Bootstrap bool `json:"bootstrap"`
	Photos    []struct {
		PoseX, PoseY, Yaw, HFOV, VFOV, Range, MinRange, EyeHeight, Sharpness float64
		Obs                                                                  []camera.Observation
	} `json:"photos"`
}

// BenchmarkDecodeLocate decodes one library locate body three ways.
func BenchmarkDecodeLocate(b *testing.B) {
	body := locateBody(b, wireCaptures(b)["library"][0])
	benchDecode(b, body, map[string]func([]byte) error{
		"encoding_json": func(body []byte) error { _, err := oracleLocate(body); return err },
		"trimmed_json": func(body []byte) error {
			var req trimmedLocate
			return json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		},
		"photowire": func(body []byte) error { _, err := decodeLocate(body); return err },
	})
}

// BenchmarkDecodeUpload decodes one library bootstrap upload three ways.
func BenchmarkDecodeUpload(b *testing.B) {
	photos := wireCaptures(b)["library"]
	req := UploadRequest{Bootstrap: true}
	for _, p := range photos {
		req.Photos = append(req.Photos, PhotoToDTO(p))
	}
	body := mustMarshal(b, req)
	benchDecode(b, body, map[string]func([]byte) error{
		"encoding_json": func(body []byte) error { _, err := oracleBatch(body, false); return err },
		"trimmed_json": func(body []byte) error {
			var req trimmedUpload
			return json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		},
		"photowire": func(body []byte) error { _, err := decodeUpload(body); return err },
	})
}

func benchDecode(b *testing.B, body []byte, decoders map[string]func([]byte) error) {
	for _, name := range []string{"encoding_json", "trimmed_json", "photowire"} {
		decode := decoders[name]
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if err := decode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
