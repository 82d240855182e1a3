package server

import (
	"path/filepath"
	"sync"
	"testing"

	"redisgraph/internal/client"
	"redisgraph/internal/resp"
)

func TestSaveAndReloadSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dump.rgsnap")

	s1 := New(Options{Addr: "127.0.0.1:0", ThreadCount: 2, SnapshotPath: path})
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	c1, err := client.Dial(s1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Query("g1", `CREATE (:N {uid: 1})-[:R]->(:N {uid: 2})`); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Query("g2", `CREATE (:M {x: 'hello'})`); err != nil {
		t.Fatal(err)
	}
	if v, err := c1.Do("SAVE"); err != nil || v.(resp.SimpleString) != "OK" {
		t.Fatalf("SAVE: %v %v", v, err)
	}
	c1.Close()
	s1.Close()

	// A fresh server on the same snapshot path restores both graphs.
	s2 := New(Options{Addr: "127.0.0.1:0", ThreadCount: 2, SnapshotPath: path})
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	c2, err := client.Dial(s2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	rep, err := c2.Query("g1", `MATCH (a:N)-[:R]->(b:N) RETURN a.uid, b.uid`)
	if err != nil {
		t.Fatal(err)
	}
	row := rep[1].([]any)[0].([]any)
	if row[0].(int64) != 1 || row[1].(int64) != 2 {
		t.Fatalf("g1 row: %v", row)
	}
	rep, err = c2.Query("g2", `MATCH (m:M) RETURN m.x`)
	if err != nil {
		t.Fatal(err)
	}
	if rep[1].([]any)[0].([]any)[0].(string) != "hello" {
		t.Fatalf("g2: %v", rep)
	}
}

func TestSaveWithoutPathErrors(t *testing.T) {
	_, c := startServer(t) // no SnapshotPath
	if _, err := c.Do("SAVE"); err == nil {
		t.Fatal("want error without snapshot path")
	}
}

// TestConcurrentSave runs SAVE from two connections at once. Every save
// shares one temp file, so the server must serialise them: each must reply
// +OK, and the snapshot left behind must load the whole graph.
func TestConcurrentSave(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dump.rgsnap")
	counts := func(c *client.Client) (nodes, edges int64) {
		t.Helper()
		rep, err := c.Do("GRAPH.RO_QUERY", "g", `MATCH (a:N) RETURN count(a)`)
		if err != nil {
			t.Fatal(err)
		}
		nodes = scalarRow(t, rep)
		rep, err = c.Do("GRAPH.RO_QUERY", "g", `MATCH (:N)-[e:R]->(:N) RETURN count(e)`)
		if err != nil {
			t.Fatal(err)
		}
		return nodes, scalarRow(t, rep)
	}

	s1 := New(Options{Addr: "127.0.0.1:0", ThreadCount: 2, SnapshotPath: path})
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	c1, err := client.Dial(s1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	seedRing(t, c1, 64)
	wantNodes, wantEdges := counts(c1)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(s1.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				if v, err := c.Do("SAVE"); err != nil || v != resp.SimpleString("OK") {
					t.Errorf("SAVE %d: %v %v", j, v, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	s2 := New(Options{Addr: "127.0.0.1:0", ThreadCount: 2, SnapshotPath: path})
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	c2, err := client.Dial(s2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if nodes, edges := counts(c2); nodes != wantNodes || edges != wantEdges {
		t.Fatalf("reloaded %d nodes, %d edges; saved %d, %d", nodes, edges, wantNodes, wantEdges)
	}
}
