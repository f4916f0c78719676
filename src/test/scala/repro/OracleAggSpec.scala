package repro

import org.apache.spark.sql.functions._

import repro.core.{FeatureGen, TopicId}
import repro.kb.{KnowledgeBase, Triple}
import repro.web.Verticals

/** DuckDB-oracle checks for the aggregations the pipeline relies on:
  * Algorithm 1's uniqueness filter and dominant-XPath ranking, the
  * frequent-string counting of the §4.2 text features, and annotation
  * roll-ups.  The pipeline's own functions are run and their output is
  * compared with the same aggregation written in SQL on an independent
  * engine.
  */
class OracleAggSpec extends SparkSpec {
  import spark.implicits._

  private lazy val site = Verticals.movie(nSites = 1, pagesPerSite = 15, seed = 21).sites.head

  private lazy val nodesDf = spark
    .createDataset(site.pages.flatMap(p => p.textNodes.map(n => (p.pageId, n.xpath, n.text))))
    .toDF("pageid", "xpath", "text")
    .cache()

  // Algorithm 1 candidates of two sites whose page ids coincide (p0, p1, …),
  // scored against a KB with a junk entity named like a footer string.
  private lazy val cands: Vector[TopicId.TopicCand] = {
    val vd = Verticals.movie(nSites = 2, pagesPerSite = 15, seed = 21)
    val kb = KnowledgeBase(vd.kb.triples ++ Vector(
      Triple("junk", "Help", "Film", "related", "Contact Us"),
      Triple("junk", "Help", "Film", "related", "About")))
    vd.sites.flatMap(_.pages).flatMap(TopicId.candidates(_, kb))
  }
  private lazy val candsDf = cands
    .map(c => (c.site, c.pageId, c.rank, c.entityId))
    .toDF("site", "pageid", "rank", "entityid")
  private lazy val candPathsDf = cands
    .flatMap(c => c.paths.map(p => (c.site, c.pageId, c.rank, p)))
    .toDF("site", "pageid", "rank", "path")

  private def blockedSql(maxTopicPages: Int) =
    "SELECT entityid FROM cands WHERE CAST(rank AS INTEGER) = 1 " +
      s"GROUP BY entityid HAVING count(*) >= $maxTopicPages"

  test("oracle: TopicId blocked entities match DuckDB") {
    Seq(1, 2, 5).foreach { k =>
      val blocked = TopicId.blockedEntities(cands, k)
      if (k == 1) assert(blocked.nonEmpty)
      Oracle.assertEquivalent(blocked.toSeq.toDF("entityid"), blockedSql(k), "cands" -> candsDf)
    }
  }
  test("oracle: TopicId dominant-path ranking matches DuckDB") {
    Seq((1, 100), (2, 100), (2, 2)).foreach { case (k, topPaths) =>
      val ranked = TopicId
        .rankPaths(cands, TopicId.blockedEntities(cands, k), topPaths)
        .zipWithIndex
        .map { case ((path, n), i) => (path, n.toLong, i + 1L) }
      assert(ranked.nonEmpty)
      Oracle.assertEquivalent(ranked.toDF("path", "cnt", "pos"),
        s"""WITH blocked AS (${blockedSql(k)}),
           |best AS (
           |  SELECT site, pageid, min(CAST(rank AS INTEGER)) AS r FROM cands
           |  WHERE entityid NOT IN (SELECT entityid FROM blocked) GROUP BY site, pageid),
           |votes AS (
           |  SELECT p.path, count(*) AS cnt FROM paths p JOIN best b
           |  ON p.site = b.site AND p.pageid = b.pageid AND CAST(p.rank AS INTEGER) = b.r
           |  GROUP BY p.path)
           |SELECT path, cnt, pos FROM (
           |  SELECT path, cnt, row_number() OVER (ORDER BY cnt DESC, path) AS pos FROM votes)
           |WHERE pos <= $topPaths""".stripMargin,
        "cands" -> candsDf, "paths" -> candPathsDf)
    }
  }
  test("oracle: per-page node counts") {
    val agg = nodesDf.groupBy($"pageid").agg(count(lit(1)) as "cnt")
    Oracle.assertEquivalent(agg,
      "SELECT pageid, count(*) AS cnt FROM nodes GROUP BY pageid",
      "nodes" -> nodesDf)
  }
  test("oracle: frequent-string counting matches DuckDB") {
    implicit val s = spark
    val pages  = spark.createDataset(site.pages)
    val normDf = site.pages.flatMap(p => p.textNodes.map(n => (p.pageId, n.norm))).toDF("pageid", "s")
    Seq((0.2, 150), (0.2, 10), (0.6, 150)).foreach { case (minFrac, cap) =>
      val freq = FeatureGen.frequentStrings(pages, minFrac, cap)
      assert(freq.nonEmpty)
      Oracle.assertEquivalent(freq.toSeq.toDF("s"),
        s"""SELECT s FROM (
           |  SELECT s, count(DISTINCT pageid) AS n FROM norms GROUP BY s)
           |WHERE n >= ${minFrac * site.pages.size}
           |ORDER BY n DESC, s LIMIT $cap""".stripMargin,
        "norms" -> normDf)
    }
  }
  test("oracle: truth roll-up by predicate") {
    val truthDf = spark.createDataset(site.truth.map(t => (t.pageId, t.predicate, t.value)))
      .toDF("pageid", "pred", "value")
    val agg = truthDf.groupBy($"pred").agg(countDistinct($"pageid") as "npages", count(lit(1)) as "nfacts")
    Oracle.assertEquivalent(agg,
      "SELECT pred, count(DISTINCT pageid) AS npages, count(*) AS nfacts FROM truth GROUP BY pred",
      "truth" -> truthDf)
  }
  test("oracle: join of truth against nodes (annotatable facts)") {
    val truthDf = spark.createDataset(site.truth.map(t => (t.pageId, t.xpath, t.predicate)))
      .toDF("pageid", "xpath", "pred")
    val joined = truthDf.join(nodesDf, Seq("pageid", "xpath"))
      .groupBy($"pred").agg(count(lit(1)) as "cnt")
    Oracle.assertEquivalent(joined,
      "SELECT t.pred, count(*) AS cnt FROM truth t JOIN nodes n " +
        "ON t.pageid = n.pageid AND t.xpath = n.xpath GROUP BY t.pred",
      "truth" -> truthDf, "nodes" -> nodesDf)
  }
}
