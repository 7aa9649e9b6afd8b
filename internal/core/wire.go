package core

// The analytics wire format: one completed Analysis serialised as a
// standalone, self-checking snap container. The encoding reuses the
// checkpoint codec's deterministic whole-Analysis layout (every map
// walked in sorted-key order, every distribution in canonical form), so
// equal analyses encode to equal bytes — which is what lets a sha256 of
// the blob serve as the parity digest between a live query reply and an
// offline replay of the same trace.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"slmob/internal/snap"
)

// analysisVersion guards the wire payload layout: encodeAnalysis, which
// the windowed checkpoint embeds too, so a change to it bumps
// checkpointVersion as well.
const analysisVersion = 1

// EncodeAnalysis serialises one completed Analysis as a standalone
// versioned blob (the live query service's wire payload). The encoding
// is deterministic: analyses with equal contents yield identical bytes.
func EncodeAnalysis(an *Analysis) ([]byte, error) {
	if an == nil {
		return nil, fmt.Errorf("core: cannot encode a nil analysis")
	}
	if an.Zones == nil || an.Trips == nil {
		return nil, fmt.Errorf("core: analysis %q is incomplete (nil Zones or Trips)", an.Land)
	}
	w := snap.NewWriter(KindAnalysis)
	w.Uvarint(analysisVersion)
	encodeAnalysis(w, an)
	return w.Finish(), nil
}

// DecodeAnalysis rebuilds an Analysis from an EncodeAnalysis blob.
// Corrupted, truncated, or version-skewed blobs return a typed
// *snap.Error, never panic.
func DecodeAnalysis(data []byte) (*Analysis, error) {
	r, err := snap.NewReader(data)
	if err != nil {
		return nil, err
	}
	if r.Kind() != KindAnalysis {
		return nil, &snap.Error{Kind: snap.KindMalformed, Msg: fmt.Sprintf("payload kind %d is not an analysis", r.Kind())}
	}
	if v := r.Uvarint(); r.Err() == nil && v != analysisVersion {
		return nil, &snap.Error{Kind: snap.KindVersion, Msg: fmt.Sprintf("analysis version %d, want %d", v, analysisVersion)}
	}
	an, err := decodeAnalysis(r)
	if err != nil {
		return nil, err
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return an, nil
}

// BlobDigest returns the hex sha256 of an encoded analysis blob — the
// form query clients use, hashing exactly the bytes they received.
func BlobDigest(blob []byte) string {
	h := sha256.Sum256(blob)
	return hex.EncodeToString(h[:])
}

// AnalysisDigest encodes the analysis and digests the bytes: because the
// encoding is deterministic, two analyses share a digest iff they are
// bit-identical — the parity gate's equality test.
func AnalysisDigest(an *Analysis) (string, error) {
	blob, err := EncodeAnalysis(an)
	if err != nil {
		return "", err
	}
	return BlobDigest(blob), nil
}
