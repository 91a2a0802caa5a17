package server

import (
	"strings"
	"testing"

	"pbppm/internal/markov"
)

func TestHintRoundTripSpecialCharacters(t *testing.T) {
	urls := []string{
		"/plain",
		"/a,b",              // comma collides with the hint separator
		"/a;b",              // semicolon collides with the parameter separator
		"/a%2Cb",            // pre-escaped text must survive double-transport
		"/search?q=a,b;c d", // query with all three hazards
		"/100%",             // trailing bare percent
		"/sp ace",           // space
	}
	hints := make([]markov.Prediction, len(urls))
	for i, u := range urls {
		hints[i] = markov.Prediction{URL: u, Probability: 0.9 - float64(i)*0.1}
	}
	header := FormatHints(hints)
	got := ParseHints(header)
	if len(got) != len(urls) {
		t.Fatalf("round trip lost hints: %d -> %d (%q)", len(urls), len(got), header)
	}
	for i, u := range urls {
		if got[i].URL != u {
			t.Errorf("hint %d round-tripped %q -> %q (header %q)", i, u, got[i].URL, header)
		}
	}
}

func TestUnescapeHintURLTolerance(t *testing.T) {
	// Legacy unescaped headers and malformed triples must pass through.
	for in, want := range map[string]string{
		"/plain": "/plain",
		"/a%ZZb": "/a%ZZb", // bad hex kept literally
		"/a%2":   "/a%2",   // truncated triple
		"/a%":    "/a%",
		"/a%2Cb": "/a,b",
		"%3B%25": ";%",
	} {
		if got := unescapeHintURL(in); got != want {
			t.Errorf("unescapeHintURL(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEscapedHintHeaderIsCleanASCII(t *testing.T) {
	header := FormatHints([]markov.Prediction{{URL: "/ünïcode,path;x", Probability: 0.5}})
	for i := 0; i < len(header); i++ {
		if header[i] < ' ' || header[i] >= 0x7f {
			t.Fatalf("header byte %d (%q) not printable ASCII: %q", i, header[i], header)
		}
	}
	if strings.Count(header, ";") != 1 || strings.Count(header, ",") != 0 {
		t.Errorf("URL delimiters leaked into header: %q", header)
	}
}

// FuzzHintHeaderRoundTrip asserts that any URL survives the
// format/parse cycle byte-for-byte.
func FuzzHintHeaderRoundTrip(f *testing.F) {
	for _, seed := range []string{
		"/home", "/a,b;c", "a b", "%", "%%2C", "/q?x=1,2;3", "ü", "\x00\x01,", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, url string) {
		if e := escapeHintURL(url); unescapeHintURL(e) != url {
			t.Fatalf("escape/unescape: %q -> %q -> %q", url, e, unescapeHintURL(e))
		}
		hints := []markov.Prediction{{URL: url, Probability: 0.5}}
		got := ParseHints(FormatHints(hints))
		if url == "" {
			if len(got) != 0 {
				t.Fatalf("empty URL parsed to %+v", got)
			}
			return
		}
		if len(got) != 1 || got[0].URL != url {
			t.Fatalf("header round trip: %q -> %q -> %+v", url, FormatHints(hints), got)
		}
	})
}
