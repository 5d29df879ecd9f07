package daemon

import "encoding/json"

// splitBatch splits the body clients send, {"jobs":[{…},…]} (the key
// exact; bytes after the closing brace ignored, as by the decoder), into
// raws aliasing body, each the json.RawMessage the decoder yields. It may
// only accept: if every raw is valid JSON (decodeJob checks) the decoder
// accepts body alike (DESIGN.md §9.5); the rest — another key, such as
// an older client's "priority", included — is declined.
func splitBatch(body []byte) (raws []json.RawMessage, ok bool) {
	i := 0
	// eat consumes tokens, each after optional whitespace, or none of them.
	eat := func(tokens ...string) bool {
		j := i
		for _, t := range tokens {
			for j < len(body) && (body[j] == ' ' || body[j] == '\t' || body[j] == '\n' || body[j] == '\r') {
				j++
			}
			if len(body)-j < len(t) || string(body[j:j+len(t)]) != t {
				return false
			}
			j += len(t)
		}
		i = j
		return true
	}
	if !eat("{", `"jobs"`, ":", "[") {
		return nil, false
	}
	raws = []json.RawMessage{}
	for !eat("]") {
		if len(raws) > 0 && !eat(",") || !eat("{") {
			return nil, false
		}
		end := objectEnd(body, i-1)
		if end < 0 {
			return nil, false
		}
		raws, i = append(raws, body[i-1:end:end]), end
	}
	return raws, eat("}")
}

// objectEnd returns the index past the '}' closing the object whose '{' is
// b[i] — where bracket depth outside strings is back to zero — or -1.
func objectEnd(b []byte, i int) int {
	for depth := 0; i < len(b); i++ {
		switch b[i] {
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return i + 1
			}
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++ // the escaped byte cannot end the string
				}
			}
		}
	}
	return -1
}
