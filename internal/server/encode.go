package server

import (
	"math"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"
)

// appendWindow appends mw as one JSON object, byte for byte what
// encoding/json writes for it: fields in struct order, omitempty as the
// tags give it, encoding/json's float format, RFC 3339 times, sorted map
// keys and HTML-safe strings. The one departure is a non-finite number,
// which encoding/json refuses to encode: it is written as null, so one
// such window cannot wedge a result stream. keys is scratch for sorting
// group keys, kept by the caller across windows.
func appendWindow(dst []byte, mw *MergedWindow, keys *[]string) []byte {
	dst = strconv.AppendInt(append(dst, `{"seq":`...), mw.Seq, 10)
	dst = appendString(append(dst, `,"query":`...), mw.Query)
	dst = appendTime(append(dst, `,"start":`...), mw.Start)
	dst = appendTime(append(dst, `,"end":`...), mw.End)
	dst = appendFloat(append(dst, `,"value":`...), mw.Value)
	dst = appendFloat(append(dst, `,"error":`...), mw.Error)
	dst = appendString(append(dst, `,"confidence":`...), mw.Confidence)
	dst = strconv.AppendInt(append(dst, `,"items":`...), mw.Items, 10)
	dst = strconv.AppendInt(append(dst, `,"sampled":`...), int64(mw.Sampled), 10)
	dst = strconv.AppendInt(append(dst, `,"shards":`...), int64(mw.Shards), 10)
	if len(mw.Groups) > 0 {
		ks := (*keys)[:0]
		for k := range mw.Groups {
			ks = append(ks, k)
		}
		slices.Sort(ks)
		*keys = ks
		dst = append(dst, `,"groups":{`...)
		for i, k := range ks {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, k)
			dst = append(dst, ':')
			dst = appendPoint(dst, mw.Groups[k])
		}
		dst = append(dst, '}')
	}
	if len(mw.Buckets) > 0 {
		dst = append(dst, `,"buckets":[`...)
		for i, b := range mw.Buckets {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendFloat(append(dst, `{"lo":`...), b.Lo)
			dst = appendFloat(append(dst, `,"hi":`...), b.Hi)
			dst = appendPoint(append(dst, `,"count":`...), b.Count)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

func appendPoint(dst []byte, p PointEstimate) []byte {
	dst = appendFloat(append(dst, `{"value":`...), p.Value)
	dst = appendFloat(append(dst, `,"error":`...), p.Error)
	return append(dst, '}')
}

// appendFloat writes f as encoding/json does: 'f' format, or 'e' below
// 1e-6 and from 1e21 on with a one-digit negative exponent unpadded. A
// non-finite f is null.
func appendFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-09 → e-9
		dst = dst[:n-1]
	}
	return dst
}

// appendTime writes t as Time.MarshalJSON does. A time RFC 3339 cannot
// represent (a year outside 0–9999), which encoding/json refuses, is null.
func appendTime(dst []byte, t time.Time) []byte {
	b, err := t.AppendText(append(dst, '"'))
	if err != nil {
		return append(dst, "null"...)
	}
	return append(b, '"')
}

// appendString writes s as a JSON string with encoding/json's HTML-safe
// escaping: control bytes, quote, backslash, <, > and & escaped, U+2028
// and U+2029 escaped, each invalid UTF-8 byte replaced by U+FFFD.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b', '\t', '\n', '\f', '\r': // 8, 9, 10, 12, 13
				dst = append(dst, '\\', "btn_fr"[b-'\b'])
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
