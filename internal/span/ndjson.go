// NDJSON encoding of span files: one header object on the first line
// (schema, run identity, sampling parameters), then one TxSpan object
// per line in completion order. Write appends every line by hand into
// one reused buffer, emitting exactly the bytes encoding/json would
// (HTML-safe string quoting included), so identical runs produce
// byte-identical files without a reflection pass per segment.

package span

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"memnet/internal/packet"
	"memnet/internal/sim"
)

// Header is the first line of a span file.
type Header struct {
	// Schema is the format version string (Schema).
	Schema string `json:"schema"`
	// Label names the simulated system configuration.
	Label string `json:"label,omitempty"`
	// Workload names the trace or synthetic pattern driving the run.
	Workload string `json:"workload,omitempty"`
	// Seed is the run seed the sampling phase derives from.
	Seed uint64 `json:"seed"`
	// Stride is the effective transaction-ID sampling stride.
	Stride uint64 `json:"stride"`
	// Spans counts the TxSpan lines that follow.
	Spans int `json:"spans"`
	// Dropped counts sampled transactions lost to the MaxSpans cap.
	Dropped uint64 `json:"dropped,omitempty"`
}

// segJSON is the wire form of Seg: the cause travels by name so span
// files stay readable and stable across Cause renumbering.
type segJSON struct {
	Cause string `json:"c"`
	Loc   string `json:"l"`
	VC    uint8  `json:"vc"`
	At    int64  `json:"at"`
	Dur   int64  `json:"d"`
}

// MarshalJSON encodes the segment with its cause spelled by name.
func (s Seg) MarshalJSON() ([]byte, error) {
	return json.Marshal(segJSON{
		Cause: s.Cause.String(), Loc: s.Loc, VC: uint8(s.VC),
		At: int64(s.At), Dur: int64(s.Dur),
	})
}

// UnmarshalJSON decodes a segment, rejecting unknown cause names.
func (s *Seg) UnmarshalJSON(b []byte) error {
	var w segJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	c, ok := CauseByName(w.Cause)
	if !ok {
		return fmt.Errorf("span: unknown cause %q", w.Cause)
	}
	*s = Seg{Cause: c, Loc: w.Loc, VC: packet.VC(w.VC), At: sim.Time(w.At), Dur: sim.Time(w.Dur)}
	return nil
}

// writeFlushAt is the buffered byte count past which Write hands the
// buffer to the underlying writer; the buffer starts at twice this so
// typical span lines append without growing it.
const writeFlushAt = 4096

// Write emits the NDJSON span file: hdr (with Schema and Spans filled
// in) followed by one line per span.
func Write(w io.Writer, hdr Header, spans []TxSpan) error {
	hdr.Schema = Schema
	hdr.Spans = len(spans)
	buf := appendHeader(make([]byte, 0, 2*writeFlushAt), &hdr)
	for i := range spans {
		buf = appendSpan(buf, &spans[i])
		if len(buf) >= writeFlushAt {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}

// appendHeader appends h as one NDJSON line, omitting the omitempty
// fields of its JSON tags exactly as encoding/json does.
func appendHeader(b []byte, h *Header) []byte {
	b = append(b, `{"schema":`...)
	b = appendString(b, h.Schema)
	if h.Label != "" {
		b = append(b, `,"label":`...)
		b = appendString(b, h.Label)
	}
	if h.Workload != "" {
		b = append(b, `,"workload":`...)
		b = appendString(b, h.Workload)
	}
	b = append(b, `,"seed":`...)
	b = strconv.AppendUint(b, h.Seed, 10)
	b = append(b, `,"stride":`...)
	b = strconv.AppendUint(b, h.Stride, 10)
	b = append(b, `,"spans":`...)
	b = strconv.AppendInt(b, int64(h.Spans), 10)
	if h.Dropped != 0 {
		b = append(b, `,"dropped":`...)
		b = strconv.AppendUint(b, h.Dropped, 10)
	}
	return append(b, "}\n"...)
}

// appendSpan appends sp as one NDJSON line. Nil Segs encode as null and
// empty non-nil Segs as [], matching encoding/json.
func appendSpan(b []byte, sp *TxSpan) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, sp.ID, 10)
	b = append(b, `,"kind":`...)
	b = appendString(b, sp.Kind)
	b = append(b, `,"addr":`...)
	b = strconv.AppendUint(b, sp.Addr, 10)
	b = append(b, `,"dst":`...)
	b = strconv.AppendInt(b, int64(sp.Dst), 10)
	b = append(b, `,"inj":`...)
	b = strconv.AppendInt(b, int64(sp.Injected), 10)
	b = append(b, `,"done":`...)
	b = strconv.AppendInt(b, int64(sp.Completed), 10)
	b = append(b, `,"segs":`...)
	if sp.Segs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range sp.Segs {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendSeg(b, &sp.Segs[i])
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...)
}

// appendSeg appends the wire form Seg.MarshalJSON produces.
func appendSeg(b []byte, s *Seg) []byte {
	b = append(b, `{"c":`...)
	b = appendString(b, s.Cause.String())
	b = append(b, `,"l":`...)
	b = appendString(b, s.Loc)
	b = append(b, `,"vc":`...)
	b = strconv.AppendUint(b, uint64(s.VC), 10)
	b = append(b, `,"at":`...)
	b = strconv.AppendInt(b, int64(s.At), 10)
	b = append(b, `,"d":`...)
	b = strconv.AppendInt(b, int64(s.Dur), 10)
	return append(b, '}')
}

// appendString appends s quoted as encoding/json quotes it with HTML
// escaping on. Edge labels carry '>', so '<', '>' and '&' take their
// \u00XX form inline; a string holding any other byte encoding/json
// rewrites (control bytes, '"', '\\', anything non-ASCII) goes through
// json.Marshal whole, which keeps that rare path exact by construction.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '<' || c == '>' || c == '&' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			start = i + 1
		}
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// Read parses an NDJSON span file. Files produced by concatenating
// several runs (mnexp writes one block per simulated configuration) are
// accepted: every header line starts a new block, the first header is
// returned, and spans from all blocks are merged in file order.
func Read(r io.Reader) (Header, []TxSpan, error) {
	var (
		hdr     Header
		gotHdr  bool
		spans   []TxSpan
		scanner = bufio.NewScanner(r)
	)
	scanner.Buffer(make([]byte, 0, 1<<16), 1<<24)
	line := 0
	for scanner.Scan() {
		line++
		b := scanner.Bytes()
		if len(b) == 0 {
			continue
		}
		var probe struct {
			Schema string `json:"schema"`
		}
		if err := json.Unmarshal(b, &probe); err != nil {
			return hdr, nil, fmt.Errorf("span: line %d: %w", line, err)
		}
		if probe.Schema != "" {
			if probe.Schema != Schema {
				return hdr, nil, fmt.Errorf("span: line %d: unsupported schema %q (want %q)", line, probe.Schema, Schema)
			}
			if !gotHdr {
				if err := json.Unmarshal(b, &hdr); err != nil {
					return hdr, nil, fmt.Errorf("span: line %d: %w", line, err)
				}
				gotHdr = true
			}
			continue
		}
		var sp TxSpan
		if err := json.Unmarshal(b, &sp); err != nil {
			return hdr, nil, fmt.Errorf("span: line %d: %w", line, err)
		}
		spans = append(spans, sp)
	}
	if err := scanner.Err(); err != nil {
		// The scanner stopped on the line after the last one it returned.
		return hdr, nil, fmt.Errorf("span: line %d: %w", line+1, err)
	}
	if !gotHdr {
		return hdr, nil, fmt.Errorf("span: missing header line (schema %q)", Schema)
	}
	return hdr, spans, nil
}
