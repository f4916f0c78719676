package repro.core

import org.apache.spark.sql.SparkSession

import repro.SparkSpec
import repro.baseline.{CeresBaseline, VertexPP}
import repro.web.Verticals

/** The pipeline leaves the shared session as it found it, and its output
  * does not depend on session settings it has no use for: no run leaves a
  * cached Dataset behind, and no stage shuffles, so CERES-Full returns the
  * same `Result`, confidences included, at any `spark.sql.shuffle.partitions`.
  * The site is `GoldenResultSpec`'s 40-page SWDE movie site.
  */
class SparkStateSpec extends SparkSpec {
  private implicit lazy val s: SparkSession = spark
  import spark.implicits._

  private lazy val vd       = Verticals.movie(nSites = 1, pagesPerSite = 40, seed = 18)
  private lazy val site     = vd.sites.head
  private lazy val pages    = spark.createDataset(site.pages)
  private lazy val trainIds = site.pages.map(_.pageId).sorted.take(site.pages.size / 2).toSet

  test("pipeline runs leave no cached data") {
    val before = spark.sparkContext.getPersistentRDDs.size
    Ceres.run(pages, trainIds, vd.kb)
    CeresBaseline.run(pages, trainIds, vd.kb)
    VertexPP.run(pages, site.truth, vd.namePred)
    assert(spark.sparkContext.getPersistentRDDs.size == before)
  }

  test("CERES-Full is identical at 1, 16 and 200 shuffle partitions") {
    val key = "spark.sql.shuffle.partitions"
    val old = spark.conf.get(key)
    def runAt(n: Int): Ceres.Result = {
      spark.conf.set(key, n.toString)
      Ceres.run(pages, trainIds, vd.kb)
    }
    try {
      val ref = runAt(16)
      assert(ref.extractions.nonEmpty)
      Seq(1, 200).foreach(n => assert(runAt(n) == ref, s"at $n shuffle partitions"))
    } finally spark.conf.set(key, old)
  }
}
