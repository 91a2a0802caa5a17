// Snapshot distribution: the channel that lets out-of-process shards
// track the maintainer's model without retraining. The process that
// owns the training window (the publisher) serves its current frozen
// model image over HTTP; follower processes poll it, validate the
// image end to end, and install it through the same crash-safe publish
// gate local rebuilds use — a failed or corrupt download keeps the
// previous snapshot live.
//
// # Wire format (pbppmSN2)
//
// The envelope is the one model format on disk and on the wire: the
// publisher's /snapshot serves it, and prefetchsim -save-model writes
// it for modelinfo. Every section is a sequence of big-endian fields
// (markov.WireWriter) with tables written in key order, so one model
// and ranking always encode to the same bytes:
//
//	magic   "pbppmSN2"                      8 bytes
//	version uint64                          publisher's monotonic counter
//	kind    uint32 length + bytes           frozen-model kind (decoder registry key)
//	model   uint64 length + bytes           markov.FrozenEncoder output
//	ranking uint64 length + bytes           popularity.Ranking.Encode; length 0 = none
//	crc     uint64                          CRC-64/ECMA over everything above
//
// The model section carries the arena image verbatim. The arena is
// host-endian by design — it is mapped directly into memory — and its
// byte-order mark makes a reader on the opposite byte order reject it.
//
// The trailing checksum is verified before any section is decoded, so
// a truncated or bit-flipped download fails fast with ErrChecksum and
// never reaches a section decoder. A checksum-valid image still has
// every field validated: a ranking must have a grade scale the server
// can index (at most popularity.MaxGrade grades).
package maintain

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pbppm/internal/markov"
	"pbppm/internal/obs"
	"pbppm/internal/popularity"
)

const snapshotMagic = "pbppmSN2"

// ErrChecksum reports a snapshot whose trailing CRC does not match its
// contents — a truncated or corrupted transfer. Followers count it
// separately from decode failures because it implicates the transport,
// not the model codecs.
var ErrChecksum = errors.New("maintain: snapshot checksum mismatch")

var snapshotCRC = crc64.MakeTable(crc64.ECMA)

// Snapshot is a decoded distribution payload: the revived model and
// its frozen-model kind, the popularity ranking it was built from (nil
// when the publisher had none), and the publisher's version counter.
type Snapshot struct {
	Version uint64
	Kind    string
	Model   markov.Predictor
	Ranking *popularity.Ranking
}

// EncodeSnapshot writes one distribution payload. The ranking may be
// nil; the model must be able to serialize itself (markov.FrozenEncoder
// — tree-backed models that cannot freeze have no wire form).
func EncodeSnapshot(w io.Writer, version uint64, model markov.FrozenEncoder, rank *popularity.Ranking) error {
	var modelBuf, rankBuf bytes.Buffer
	if err := model.EncodeFrozen(&modelBuf); err != nil {
		return fmt.Errorf("maintain: encoding snapshot model: %w", err)
	}
	if rank != nil {
		if err := rank.Encode(&rankBuf); err != nil {
			return fmt.Errorf("maintain: encoding snapshot ranking: %w", err)
		}
	}
	e := markov.NewWireWriter([]byte(snapshotMagic))
	e.Uint64(version)
	e.String(model.FrozenKind())
	e.Blob(modelBuf.Bytes())
	e.Blob(rankBuf.Bytes())
	e.Uint64(crc64.Checksum(e.Bytes(), snapshotCRC))
	_, err := e.WriteTo(w)
	return err
}

// DecodeSnapshot validates and revives one distribution payload. The
// checksum is verified over the raw bytes before any section is
// decoded; a mismatch returns an error wrapping ErrChecksum.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) >= len(snapshotMagic) && string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("maintain: bad snapshot magic %q", data[:len(snapshotMagic)])
	}
	if len(data) < len(snapshotMagic)+8+4+8+8+8 {
		return nil, fmt.Errorf("maintain: snapshot too short (%d bytes): %w", len(data), ErrChecksum)
	}
	sum := binary.BigEndian.Uint64(data[len(data)-8:])
	if crc64.Checksum(data[:len(data)-8], snapshotCRC) != sum {
		return nil, ErrChecksum
	}

	r := markov.NewWireReader(data[len(snapshotMagic) : len(data)-8])
	version := r.Uint64()
	kind := r.String()
	modelBytes := r.Blob()
	rankBytes := r.Blob()
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("maintain: snapshot sections: %w", err)
	}

	model, err := markov.DecodeFrozenModel(kind, modelBytes)
	if err != nil {
		return nil, err
	}
	var rank *popularity.Ranking
	if len(rankBytes) > 0 {
		if rank, err = popularity.DecodeRanking(bytes.NewReader(rankBytes)); err != nil {
			return nil, err
		}
		if _, grades := rank.Scale(); grades > int(popularity.MaxGrade) {
			return nil, fmt.Errorf("maintain: snapshot ranking has %d grades, the server grades at most %d",
				grades, popularity.MaxGrade)
		}
	}
	return &Snapshot{Version: version, Kind: kind, Model: model, Ranking: rank}, nil
}

// snapshotImage is one encoded payload held for serving, swapped whole
// on every publish.
type snapshotImage struct {
	version uint64
	etag    string
	data    []byte
}

// publisherMetrics: the distribution channel's publisher-side metrics.
type publisherMetrics struct {
	version     *obs.Gauge
	bytes       *obs.Gauge
	publishes   *obs.Counter
	unsupported *obs.Counter
	servedFull  *obs.Counter
	served304   *obs.Counter
	servedWait  *obs.Counter
}

func newPublisherMetrics(reg *obs.Registry) *publisherMetrics {
	status := func(v string) obs.Label { return obs.Label{Name: "status", Value: v} }
	const reqHelp = "Snapshot endpoint responses, by status: full payload, not_modified (ETag match), or long-poll timeout answered 304."
	return &publisherMetrics{
		version: reg.Gauge("pbppm_snapshot_version",
			"Version of the snapshot currently offered to followers; bumps on every model publish."),
		bytes: reg.Gauge("pbppm_snapshot_bytes",
			"Encoded size of the snapshot currently offered to followers."),
		publishes: reg.Counter("pbppm_snapshot_publishes_total",
			"Model publishes encoded into a distribution snapshot."),
		unsupported: reg.Counter("pbppm_snapshot_unsupported_total",
			"Model publishes that could not be encoded for distribution (model has no frozen wire form or encoding failed); followers keep the previous snapshot."),
		servedFull: reg.Counter("pbppm_snapshot_requests_total", reqHelp, status("full")),
		served304:  reg.Counter("pbppm_snapshot_requests_total", reqHelp, status("not_modified")),
		servedWait: reg.Counter("pbppm_snapshot_requests_total", reqHelp, status("wait_timeout")),
	}
}

// PublisherConfig parameterizes a Publisher.
type PublisherConfig struct {
	// MaxWait caps a long-poll request's ?wait= duration; zero selects
	// 30 seconds.
	MaxWait time.Duration
	// Obs registers the publisher-side distribution metrics; nil keeps
	// them process-internal.
	Obs *obs.Registry
	// Logger receives encode-failure lines, tagged component=snapshot;
	// nil discards them.
	Logger *slog.Logger
}

func (c PublisherConfig) maxWait() time.Duration {
	if c.MaxWait <= 0 {
		return 30 * time.Second
	}
	return c.MaxWait
}

// Publisher serves the maintainer's current model as a versioned
// snapshot over HTTP. It subscribes to the maintainer, so every
// successful publish — initial build, delta merge, compaction, or an
// installed upstream snapshot — is re-encoded and offered with a fresh
// version; a model that cannot encode (no frozen wire form) is counted
// and skipped, leaving the previous snapshot on offer.
//
// GET responds 200 with the payload, ETag, and X-Snapshot-Version
// headers; with If-None-Match matching the current ETag it responds
// 304. A ?wait=DURATION query long-polls: the response is delayed until
// the version changes from the If-None-Match ETag or the wait (capped
// at MaxWait) elapses. Before the first publish the endpoint responds
// 404 — a follower treats that as "not yet", not an error.
type Publisher struct {
	cfg     PublisherConfig
	metrics *publisherMetrics
	log     *slog.Logger

	mu      sync.Mutex
	img     *snapshotImage
	changed chan struct{} // closed and replaced on every publish
	version uint64
}

// NewPublisher wires a publisher to the maintainer's publish stream.
// If a model is already published it is encoded immediately.
func NewPublisher(m *Maintainer, cfg PublisherConfig) *Publisher {
	p := &Publisher{
		cfg:     cfg,
		metrics: newPublisherMetrics(cfg.Obs),
		log:     obs.Component(cfg.Logger, "snapshot"),
		changed: make(chan struct{}),
	}
	m.Subscribe(func(model markov.Predictor) {
		// Subscribe delivers under the maintainer's publish lock, so
		// Ranking() here is exactly the ranking stored with this model.
		p.offer(model, m.Ranking())
	})
	return p
}

// offer encodes one published model and swaps it in as the current
// snapshot.
func (p *Publisher) offer(model markov.Predictor, rank *popularity.Ranking) {
	enc, ok := model.(markov.FrozenEncoder)
	if !ok {
		p.metrics.unsupported.Inc()
		p.log.Warn("published model has no frozen wire form; snapshot not updated",
			"model", model.Name())
		return
	}
	p.mu.Lock()
	version := p.version + 1
	p.mu.Unlock()

	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, version, enc, rank); err != nil {
		p.metrics.unsupported.Inc()
		p.log.Warn("snapshot encoding failed; snapshot not updated",
			"model", model.Name(), "error", err)
		return
	}
	data := buf.Bytes()
	img := &snapshotImage{
		version: version,
		etag:    fmt.Sprintf("\"v%d-%x\"", version, crc64.Checksum(data, snapshotCRC)),
		data:    data,
	}

	p.mu.Lock()
	p.version = version
	p.img = img
	close(p.changed)
	p.changed = make(chan struct{})
	p.mu.Unlock()

	p.metrics.publishes.Inc()
	p.metrics.version.Set(int64(version))
	p.metrics.bytes.Set(int64(len(data)))
	p.log.Info("snapshot offered", "version", version, "bytes", len(data), "etag", img.etag)
}

// current returns the offered image (nil before the first publish) and
// the change channel to wait on.
func (p *Publisher) current() (*snapshotImage, <-chan struct{}) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.img, p.changed
}

// Version reports the currently offered snapshot version, zero before
// the first publish.
func (p *Publisher) Version() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.version
}

// ServeHTTP implements the snapshot endpoint; see the Publisher doc.
func (p *Publisher) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	img, changed := p.current()
	inm := r.Header.Get("If-None-Match")

	// Long-poll: hold the request while the client's ETag still matches
	// the offer, until a publish fires or the capped wait elapses.
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" && img != nil && inm == img.etag {
		wait, err := time.ParseDuration(waitStr)
		if err != nil || wait <= 0 {
			http.Error(w, "bad wait duration", http.StatusBadRequest)
			return
		}
		if max := p.cfg.maxWait(); wait > max {
			wait = max
		}
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-changed:
			img, _ = p.current()
		case <-timer.C:
			p.metrics.servedWait.Inc()
			w.WriteHeader(http.StatusNotModified)
			return
		case <-r.Context().Done():
			return
		}
	}

	if img == nil {
		http.Error(w, "no snapshot published yet", http.StatusNotFound)
		return
	}
	w.Header().Set("ETag", img.etag)
	w.Header().Set("X-Snapshot-Version", strconv.FormatUint(img.version, 10))
	if inm == img.etag {
		p.metrics.served304.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(img.data)))
	p.metrics.servedFull.Inc()
	if r.Method == http.MethodHead {
		return
	}
	w.Write(img.data)
}
