package resultcache

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
)

// StoreHandler serves c over HTTP as the object store Remote speaks:
//
//	GET  /<key>  the stored envelope JSON, or 404 on any kind of miss
//	HEAD /<key>  presence probe, same status codes as GET
//	PUT  /<key>  store an envelope (schema and key must match), 204
//
// Keys are validated as sha256 hex digests before they go anywhere
// near the filesystem, so the handler can be mounted on a shared
// daemon port (cmd/prosimd -serve-cache mounts it under /cache/).
// Stored bytes are revalidated as a well-formed envelope on PUT; a
// client can therefore never corrupt the store, only miss it.
func StoreHandler(c *Cache) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := strings.TrimPrefix(r.URL.Path, "/")
		if !validKey(key) {
			http.Error(w, "resultcache: not a result key", http.StatusBadRequest)
			return
		}
		switch r.Method {
		case http.MethodGet, http.MethodHead:
			data, _, ok := c.readEntry(key)
			if !ok {
				http.NotFound(w, r)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			if r.Method == http.MethodHead {
				w.WriteHeader(http.StatusOK)
				return
			}
			w.Write(data)
		case http.MethodPut:
			data, err := io.ReadAll(io.LimitReader(r.Body, maxEnvelopeBytes+1))
			if err != nil {
				http.Error(w, "resultcache: "+err.Error(), http.StatusBadRequest)
				return
			}
			if len(data) > maxEnvelopeBytes {
				http.Error(w, "resultcache: envelope too large", http.StatusRequestEntityTooLarge)
				return
			}
			if err := c.putRaw(key, data); err != nil {
				http.Error(w, err.Error(), http.StatusUnprocessableEntity)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		default:
			w.Header().Set("Allow", "GET, HEAD, PUT")
			http.Error(w, "GET, HEAD or PUT required", http.StatusMethodNotAllowed)
		}
	})
}

// putRaw validates data as an envelope for key at this cache's schema
// version and stores it verbatim through the same atomic temp+rename
// path Put uses.
func (c *Cache) putRaw(key string, data []byte) error {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return errBadEnvelope
	}
	if env.Schema != c.version || env.Key != key || env.Result == nil {
		return errBadEnvelope
	}
	return c.writeEntry(key, data)
}
