package resultcache

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzCacheEntry feeds arbitrary bytes to Get as the entry file of a fixed
// key: the result cache's one untrusted-bytes boundary, since anything
// that can write the cache directory can put anything there. Get must
// not panic, and it must hit exactly when the bytes are an envelope for
// this key at SchemaVersion with a result, returning that result.
func FuzzCacheEntry(f *testing.F) {
	key, err := Key(SchemaVersion, "fuzz")
	if err != nil {
		f.Fatal(err)
	}
	envelopeOf := func(schema int, key string) []byte {
		data, err := json.Marshal(envelope{Schema: schema, Key: key, Result: sampleResult()})
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	entry := envelopeOf(SchemaVersion, key)
	otherKey, err := Key(SchemaVersion, "other")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(entry)
	f.Add(entry[:len(entry)/2])
	f.Add(envelopeOf(SchemaVersion, otherKey))
	f.Add(envelopeOf(SchemaVersion+1, key))
	f.Add([]byte(`{"schema":2,"key":"` + key + `","result":null}`))

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, key+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(dir) // a fresh front per input
		if err != nil {
			t.Fatal(err)
		}
		got, ok := c.Get(key)
		var env envelope
		valid := json.Unmarshal(data, &env) == nil &&
			env.Schema == SchemaVersion && env.Key == key && env.Result != nil
		if ok != valid {
			t.Fatalf("Get hit=%v for an entry whose envelope is valid=%v", ok, valid)
		}
		if ok && !reflect.DeepEqual(got, env.Result) {
			t.Fatalf("Get returned %+v, the entry holds %+v", got, env.Result)
		}
		if !ok && got != nil {
			t.Fatalf("a miss returned %+v", got)
		}
	})
}
