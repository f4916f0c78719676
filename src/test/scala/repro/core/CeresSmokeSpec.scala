package repro.core

import repro.SparkSpec
import repro.dom.PageDoc
import repro.web.Verticals

/** End-to-end smoke: CERES-Full on a small synthetic NBA site must identify
  * topics, annotate, train, and extract with high quality.
  */
class CeresSmokeSpec extends SparkSpec {
  import spark.implicits._

  private lazy val vd   = Verticals.nbaplayer(nSites = 2, pagesPerSite = 40, seed = 5)
  private lazy val site = vd.sites(1) // non-KB site
  private lazy val result = {
    implicit val s = spark
    val pages = spark.createDataset(site.pages)
    val trainIds = site.pages.map(_.pageId).sorted.take(site.pages.size / 2).toSet
    Ceres.run(pages, trainIds, vd.kb)
  }

  test("smoke: topics identified on most train pages") {
    assert(result.topics.size >= 10, s"topics=${result.topics.size}")
  }

  test("smoke: topic assignments are correct") {
    val truth = site.topics.map(t => t.pageId -> t.entityId).toMap
    val correct = result.topics.count(t => truth.get(t.pageId).contains(t.entityId))
    assert(correct.toDouble / result.topics.size > 0.9)
  }

  test("smoke: annotations produced") {
    assert(result.annotations.nonEmpty)
  }

  test("smoke: extraction quality on eval half") {
    val trainIds = site.pages.map(_.pageId).sorted.take(site.pages.size / 2).toSet
    val evalIds  = site.pages.map(_.pageId).map(_.toString).toSet -- trainIds
    val prf = Metrics.extractionPRF(result.extractions, site.truth, _ => "name", evalIds)
    info(prf.toVector.sortBy(_._1).map { case (k, m) => s"$k ${Metrics.fmt(m)}" }.mkString("; "))
    assert(prf("ALL").f1 > 0.8, s"ALL=${Metrics.fmt(prf("ALL"))}")
  }

  test("degenerate: an empty Dataset yields an empty Result") {
    implicit val s = spark
    val r = Ceres.run(spark.createDataset(Seq.empty[PageDoc]), Set.empty, vd.kb)
    assert(r == Ceres.Result(Vector.empty, Vector.empty, Vector.empty, Vector.empty))
  }

  test("degenerate: a page with no text nodes gets no topic, annotation or extraction") {
    implicit val s = spark
    // Same markup as a real page of the site, so it clusters with the others.
    val blank = site.pages.head.copy(pageId = "blank",
      nodes = site.pages.head.nodes.map(_.copy(text = "", norm = "")))
    assert(blank.textNodes.isEmpty)
    val r = Ceres.run(spark.createDataset(site.pages :+ blank), Set.empty, vd.kb)
    assert(r.extractions.nonEmpty, "the rest of the site still extracts")
    assert(!r.topics.exists(_.pageId == "blank"))
    assert(!r.annotations.exists(_.pageId == "blank"))
    assert(!r.extractions.exists(_.pageId == "blank"))
  }
}
