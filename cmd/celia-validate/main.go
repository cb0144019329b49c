// Command celia-validate regenerates the paper's Table IV: for nine
// (application, problem, configuration) cases it compares the
// analytical model's predictions — built from fitted demand models and
// measured capacities — against full-scale runs on the cloud
// simulator, and reports per-case and per-application errors.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"

	"repro/internal/profile"
	"repro/internal/report"
	"repro/internal/validate"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("celia-validate: ")
	csvOut := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	flag.Parse()

	rows, err := validate.Run(profile.New(), validate.PaperCases())
	if err != nil {
		log.Fatal(err)
	}
	tb := report.NewTable("Table IV: model validation",
		"case", "configuration", "pred T (h)", "actual T (h)", "pred C ($)", "actual C ($)", "time err (%)", "cost err (%)")
	for _, r := range rows {
		tb.AddRow(r.Case.Name(), r.Case.Config.String(),
			r.PredictedTime.Hours(), r.ActualTime.Hours(),
			float64(r.PredictedCost), float64(r.ActualCost),
			r.TimeErrPct, r.CostErrPct)
	}
	if *csvOut {
		if err := tb.WriteCSV(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if _, err := tb.WriteTo(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	maxErr := validate.MaxErrByApp(rows)
	apps := make([]string, 0, len(maxErr))
	for app := range maxErr {
		apps = append(apps, app)
	}
	slices.Sort(apps) // map order varies run to run; the report must not
	for _, app := range apps {
		fmt.Printf("max time error %-6s %.1f%%\n", app, maxErr[app])
	}
	fmt.Println("paper: max errors 9.5% (x264), 13.1% (galaxy), 16.7% (sand); all < 17%")
}
