package repro.bench

import repro.SparkSpec
import repro.exp.SwdeExperiment

/** Table 4: per-predicate mention-level P/R/F1 for Vertex++ vs CERES-Full.
  *
  * Paper shape: both systems >= 0.95 F1 on movie/NBA predicates; CERES-Full
  * recall collapses on book predicates (isbn 0.19, pubdate 0.40) due to KB
  * overlap, while precision stays high; MPAA is NA for CERES (no seed data).
  */
class Table4SwdePredicateBench extends SparkSpec {

  private lazy val runs = BenchRuns.swde
  private lazy val vpp  = SwdeExperiment.table4(runs, "Vertex++").map { case (v, p, m) => (v, p) -> m }.toMap
  private lazy val full = SwdeExperiment.table4(runs, "CERES-Full").map { case (v, p, m) => (v, p) -> m }.toMap

  test("Table 4: per-predicate comparison") {
    val keys = (vpp.keySet ++ full.keySet).toVector.sorted
    println(SwdeExperiment.renderTable4(runs))
    assert(keys.nonEmpty)
  }
  test("shape: mpaa extracted by Vertex++ but NA for CERES-Full") {
    assert(vpp.contains(("movie", "mpaa")))
    assert(!full.contains(("movie", "mpaa")))
  }
  test("shape: CERES-Full precision stays high on book despite low recall") {
    val bookPreds = full.keys.filter(_._1 == "book").toVector
    assert(bookPreds.nonEmpty)
    val all = bookPreds.map(full)
    val agg = repro.core.Metrics.total("book", all)
    assert(agg.p > 0.7, s"book precision=${agg.p}")
    assert(agg.r < agg.p, s"book recall ${agg.r} should trail precision ${agg.p}")
  }
  test("shape: CERES-Full matches Vertex++ on nbaplayer") {
    val keys = full.keys.filter(_._1 == "nbaplayer")
    keys.foreach { k =>
      assert(full(k).f1 > 0.85, s"$k full=${full(k).f1}")
    }
  }
  test("shape: multi-valued genre recall is high for CERES-Full (paper: 0.97)") {
    assert(full(("movie", "genre")).r > 0.85, s"genre r=${full(("movie", "genre")).r}")
  }
}
