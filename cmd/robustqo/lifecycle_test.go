package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"robustqo/internal/obs"
	"robustqo/internal/sqlparse"
)

// TestFrontEndsRecordTheSameLedger sends the 40-query corpus through
// serve's /query handler and through `ledger run` with the same flags:
// both front ends must leave byte-identical persisted ledgers.
func TestFrontEndsRecordTheSameLedger(t *testing.T) {
	ledgerFile := filepath.Join(t.TempDir(), "ledger.bin")
	var buf strings.Builder
	if err := run([]string{"ledger", "run", "-lines", "4000", "-samplesize", "500", "-out", ledgerFile}, &buf); err != nil {
		t.Fatalf("ledger run: %v\n%s", err, buf.String())
	}
	want, err := os.ReadFile(ledgerFile)
	if err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, 4000, 1)
	ts := httptest.NewServer(s.mux())
	defer ts.Close()
	for _, sqlText := range corpusQueries() {
		if code, body := get(t, ts.URL+"/query?sql="+url.QueryEscape(sqlText)); code != 200 {
			t.Fatalf("%s: code %d body %q", sqlText, code, body)
		}
	}
	var got bytes.Buffer
	if err := s.led.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("serve's ledger (%d bytes, %d fingerprints) differs from ledger run's (%d bytes)",
			got.Len(), s.led.Len(), len(want))
	}
}

var (
	simRE  = regexp.MustCompile(`simulated execution: ([0-9.]+) s`)
	rowsRE = regexp.MustCompile(`\((\d+) rows\)\n$`)
)

// TestSQLMatchesQueryEndpoint requires `sql` and /query to report the
// same simulated time and row count for the same statement and flags.
func TestSQLMatchesQueryEndpoint(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, 4000, 1).mux())
	defer ts.Close()
	for _, sqlText := range corpusQueries()[1:4] {
		var cli strings.Builder
		if err := run([]string{"sql", "-lines", "4000", "-samplesize", "500", sqlText}, &cli); err != nil {
			t.Fatalf("sql %q: %v", sqlText, err)
		}
		code, body := get(t, ts.URL+"/query?sql="+url.QueryEscape(sqlText))
		if code != 200 {
			t.Fatalf("/query %q: code %d body %q", sqlText, code, body)
		}
		for _, re := range []*regexp.Regexp{simRE, rowsRE} {
			c, q := re.FindStringSubmatch(cli.String()), re.FindStringSubmatch(body)
			if c == nil || q == nil || c[1] != q[1] {
				t.Errorf("%q: sql printed %q, /query %q", sqlText, c, q)
			}
		}
	}
}

type failingWriter struct{ err error }

func (w failingWriter) Write([]byte) (int, error) { return 0, w.err }

type failingCloser struct{ err error }

func (c failingCloser) Close() error { return c.err }

// TestCloseLogsReportsLostLines drives the close path serve and `ledger
// run` share: a lost event or slow-query line, or a failed Close, is the
// error the run ends with, the first one winning.
func TestCloseLogsReportsLostLines(t *testing.T) {
	s := newTestServer(t, 2000, 1)
	q, err := sqlparse.Parse("SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 10")
	if err != nil {
		t.Fatal(err)
	}
	errEvents := errors.New("event log: no space left")
	errSlow := errors.New("slow log: no space left")
	errClose := errors.New("close: input/output error")
	for _, tc := range []struct {
		name         string
		events, slow io.Writer
		closeErr     error
		want         error
	}{
		{"clean", io.Discard, io.Discard, nil, nil},
		{"event write", failingWriter{errEvents}, io.Discard, nil, errEvents},
		{"slow-log write", io.Discard, failingWriter{errSlow}, nil, errSlow},
		{"close", io.Discard, io.Discard, errClose, errClose},
		{"write before close", failingWriter{errEvents}, failingWriter{errSlow}, errClose, errEvents},
	} {
		s.events = obs.NewEventLog(tc.events)
		s.slow = obs.NewSlowLog(0, tc.slow)
		s.slowMS = 0
		s.logFiles = []io.Closer{failingCloser{tc.closeErr}}
		if _, err := s.execute(context.Background(), request{sql: "q", q: q}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := s.closeLogs(); !errors.Is(err, tc.want) {
			t.Errorf("%s: closeLogs = %v, want %v", tc.name, err, tc.want)
		}
	}
}
