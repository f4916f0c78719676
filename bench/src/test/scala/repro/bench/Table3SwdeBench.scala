package repro.bench

import repro.SparkSpec
import repro.exp.SwdeExperiment

/** Table 3: page-hit F1 of the four implemented systems on the four SWDE
  * verticals.  Paper values (for the systems we implement):
  *
  *   System          Movie  NBA   Univ  Book
  *   Vertex++        0.90   0.97  1.00  0.94
  *   CERES-Baseline  NA(OOM) 0.78 0.72  0.27
  *   CERES-Topic     0.99   0.97  0.96  0.72
  *   CERES-Full      0.99   0.98  0.94  0.76
  *
  * Shape assertions: CERES-Full competitive with Vertex++ on movie/NBA,
  * CERES-Baseline clearly worst, Book the weakest CERES vertical.
  */
class Table3SwdeBench extends SparkSpec {

  private lazy val runs = BenchRuns.swde
  private lazy val t3 = SwdeExperiment.table3(runs).map { case (v, s, f) => (v, s) -> f }.toMap

  test("Table 3: page-hit F1 per vertical and system") {
    println(SwdeExperiment.renderTable3(runs))
    println(SwdeExperiment.renderAnnotatedFraction(runs))
    assert(t3.nonEmpty)
  }
  test("shape: CERES-Full strong on movie and nbaplayer (paper: 0.99 / 0.98)") {
    assert(t3(("movie", "CERES-Full")) > 0.9, s"movie=${t3(("movie", "CERES-Full"))}")
    assert(t3(("nbaplayer", "CERES-Full")) > 0.9, s"nba=${t3(("nbaplayer", "CERES-Full"))}")
  }
  test("shape: CERES-Full competitive with Vertex++ on movie/NBA") {
    assert(t3(("movie", "CERES-Full")) >= t3(("movie", "Vertex++")) - 0.1)
    assert(t3(("nbaplayer", "CERES-Full")) >= t3(("nbaplayer", "Vertex++")) - 0.1)
  }
  test("shape: CERES-Baseline is the weakest distantly supervised system") {
    Vector("movie", "nbaplayer", "university", "book").foreach { v =>
      assert(t3((v, "CERES-Baseline")) <= t3((v, "CERES-Full")) + 0.05,
        s"$v baseline=${t3((v, "CERES-Baseline"))} full=${t3((v, "CERES-Full"))}")
    }
  }
  test("shape: book is the weakest vertical for CERES-Full (low KB overlap)") {
    val full = Vector("movie", "nbaplayer", "university").map(v => t3((v, "CERES-Full")))
    assert(t3(("book", "CERES-Full")) <= full.min + 0.05)
  }
}
