package lambdafs_test

import (
	"errors"
	"fmt"
	"log"

	"lambdafs"
)

// Example shows the minimal lifecycle: boot a cluster, create metadata,
// read it back.
func Example() {
	cfg := lambdafs.DefaultConfig()
	cfg.Deployments = 4
	cluster, err := lambdafs.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	client := cluster.NewClient("example")
	if err := client.MkdirAll("/photos/2023"); err != nil {
		log.Fatal(err)
	}
	if err := client.Create("/photos/2023/cat.jpg"); err != nil {
		log.Fatal(err)
	}
	entries, err := client.List("/photos/2023")
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range entries {
		fmt.Println(e.Name)
	}
	// Output:
	// cat.jpg
}

// ExampleClient_Rename demonstrates rename semantics, including the
// sentinel errors that survive the RPC boundary.
func ExampleClient_Rename() {
	cfg := lambdafs.DefaultConfig()
	cfg.Deployments = 2
	cluster, err := lambdafs.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	client := cluster.NewClient("renamer")
	client.MkdirAll("/inbox")
	client.Create("/inbox/draft.txt")

	if err := client.Rename("/inbox/draft.txt", "/inbox/final.txt"); err != nil {
		log.Fatal(err)
	}
	_, err = client.Stat("/inbox/draft.txt")
	fmt.Println("old name gone:", errors.Is(err, lambdafs.ErrNotFound))

	err = client.Rename("/inbox/missing.txt", "/inbox/x")
	fmt.Println("missing source:", errors.Is(err, lambdafs.ErrNotFound))
	// Output:
	// old name gone: true
	// missing source: true
}

// ExampleCluster_Stats shows cluster introspection after some traffic.
func ExampleCluster_Stats() {
	cfg := lambdafs.DefaultConfig()
	cfg.Deployments = 2
	cluster, err := lambdafs.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	client := cluster.NewClient("observer")
	client.MkdirAll("/d")
	client.Create("/d/f")
	client.Stat("/d/f") // cache fill
	client.Stat("/d/f") // cache hit

	s := cluster.Stats()
	fmt.Println("NameNodes running:", s.ActiveNameNodes > 0)
	fmt.Println("cache hits:", s.CacheHits > 0)
	fmt.Println("store commits:", s.Store.Commits > 0)
	// Output:
	// NameNodes running: true
	// cache hits: true
	// store commits: true
}
