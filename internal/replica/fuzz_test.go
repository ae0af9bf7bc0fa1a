package replica

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzServeApply posts fuzzed bodies to the standby's apply handler over
// an in-memory engine holding two records. Whatever the body, the
// handler must not panic, must answer the engine's LSN, and must have
// applied only an in-order run of CRC-valid frames of the request: the
// records past the engine's starting LSN are frames lsn-from onward.
func FuzzServeApply(f *testing.F) {
	p := testPayloads(4)
	corrupt := makeFrames(p[:2])
	corrupt[1].CRC ^= 1
	for _, req := range []applyRequest{
		{From: 1, Frames: makeFrames(p)}, // a real batch, overlapping the engine
		{From: 2},                        // a heartbeat
		{From: 2, Frames: corrupt},       // a batch whose second frame fails its CRC
		{From: 5, Frames: makeFrames(p)}, // a gap
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		eng := &memEngine{applied: testPayloads(2)}
		s := NewStandby(eng, nil, StandbyOptions{Primary: "http://unused", Advertise: "http://unused"})
		w := httptest.NewRecorder()
		s.ServeApply(w, httptest.NewRequest(http.MethodPost, "/replication/apply", bytes.NewReader(body)))

		var req applyRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			if w.Code != http.StatusBadRequest || eng.LSN() != 2 {
				t.Fatalf("undecodable body: code %d, engine at lsn %d", w.Code, eng.LSN())
			}
			return
		}
		var resp applyResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad apply response (%d): %q", w.Code, w.Body.String())
		}
		if resp.LSN != eng.LSN() {
			t.Fatalf("response lsn %d, engine lsn %d", resp.LSN, eng.LSN())
		}
		start := uint64(2)
		applied := eng.payloads()[start:]
		if len(applied) == 0 {
			return
		}
		if req.From > start {
			t.Fatalf("applied %d records of a batch from %d past lsn %d", len(applied), req.From, start)
		}
		skip := start - req.From
		for k, a := range applied {
			fr := req.Frames[skip+uint64(k)]
			if !bytes.Equal(a, fr.Payload) || crc32.Checksum(fr.Payload, castagnoli) != fr.CRC {
				t.Fatalf("record %d is not frame %d of the batch, or that frame's CRC is wrong", start+uint64(k), skip+uint64(k))
			}
		}
	})
}
