// Command tables regenerates the paper's tables and figures.
//
// Usage:
//
//	tables -table all          # every experiment
//	tables -table table4       # one experiment
//	tables -list               # list experiment ids
//
// Experiment ids: ablation, eq1, extda, fig3, fig6, figures, table3,
// table4, table5, table6, table7, table8.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	tableFlag := flag.String("table", "all", "experiment id to run, or 'all'")
	list := flag.Bool("list", false, "list experiment ids and exit")
	asJSON := flag.Bool("json", false, "emit structured JSON instead of text tables")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			title, _ := experiments.Title(id)
			fmt.Printf("%-8s %s\n", id, title)
		}
		return
	}

	ids := experiments.IDs()
	if *tableFlag != "all" {
		ids = []string{*tableFlag}
	}
	type jsonResult struct {
		ID    string `json:"id"`
		Title string `json:"title"`
		Data  any    `json:"data"`
	}
	var collected []jsonResult
	for _, id := range ids {
		start := time.Now()
		res, err := experiments.Run(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tables: %v\n", err)
			os.Exit(1)
		}
		if *asJSON {
			collected = append(collected, jsonResult{ID: res.ID, Title: res.Title, Data: res.Data})
			continue
		}
		fmt.Printf("== %s — %s (%v)\n%s\n", res.ID, res.Title,
			time.Since(start).Round(time.Millisecond), res.Text)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(collected); err != nil {
			fmt.Fprintf(os.Stderr, "tables: encoding JSON: %v\n", err)
			os.Exit(1)
		}
	}
}
