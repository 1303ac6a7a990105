package kmedian

import (
	"math/rand"
	"testing"

	"dpc/internal/metric"
)

func benchPoints(n int) *metric.Points {
	r := rand.New(rand.NewSource(1))
	pts := make([]metric.Point, n)
	for i := range pts {
		pts[i] = metric.Point{r.Float64() * 100, r.Float64() * 100}
	}
	return metric.NewPoints(pts)
}

func BenchmarkLocalSearch(b *testing.B) {
	sp := benchPoints(500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LocalSearch(sp, nil, 8, 25, Options{Seed: int64(i)})
	}
}

func BenchmarkLocalSearchQuadraticEngine(b *testing.B) {
	// The faithful Theorem 3.1 engine: all facilities scanned per round.
	sp := benchPoints(500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LocalSearch(sp, nil, 8, 25, Options{Seed: int64(i), SampleFacilities: -1})
	}
}

// BenchmarkLocalSearchOutliers runs the solve at a perfbench site's shape
// (1200 planted points with 2% far outliers, k = 10, t = 100), where the
// swap evaluation dominates, for unit and weighted clients.
func BenchmarkLocalSearchOutliers(b *testing.B) {
	sp := plantedSite()
	w := make([]float64, sp.Clients())
	for j := range w {
		w[j] = float64(1 + j%3)
	}
	for _, bc := range []struct {
		name string
		w    []float64
	}{{"unit", nil}, {"weighted", w}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				LocalSearch(sp, bc.w, 10, 100, Options{Seed: int64(i)})
			}
		})
	}
}

func BenchmarkJV(b *testing.B) {
	sp := benchPoints(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		JV(sp, nil, 5, 5, 0, Options{})
	}
}

func BenchmarkEvalSum(b *testing.B) {
	sp := benchPoints(2000)
	centers := []int{1, 100, 500, 900, 1500}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvalSum(sp, nil, centers, 50)
	}
}
