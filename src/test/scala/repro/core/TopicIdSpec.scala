package repro.core

import repro.SparkSpec
import repro.kb.{KnowledgeBase, Triple}
import repro.web.Verticals

class TopicIdSpec extends SparkSpec {
  import spark.implicits._

  private lazy val vd = Verticals.nbaplayer(nSites = 2, pagesPerSite = 30, seed = 5)
  private lazy val site = vd.sites(1)
  private lazy val topics = {
    implicit val s = spark
    val kbB = spark.sparkContext.broadcast(vd.kb)
    TopicId.identify(spark.createDataset(site.pages), kbB).collect().toVector
  }

  test("scoreEntities ranks the true topic first on a clean page") {
    val page = site.pages.head
    val truth = site.topics.find(_.pageId == page.pageId).get
    val scored = TopicId.scoreEntities(page, vd.kb)
    // Only meaningful when the topic is in the KB at all.
    if (vd.kb.triplesOf.contains(truth.entityId))
      assert(scored.headOption.map(_._1).contains(truth.entityId))
  }
  test("scoreEntities scores are in (0, 1]") {
    site.pages.take(5).foreach { p =>
      TopicId.scoreEntities(p, vd.kb).foreach { case (_, s, _) => assert(s > 0 && s <= 1) }
    }
  }
  test("pages whose topic is absent from the KB get no (or wrong) topic, not a crash") {
    assert(topics.size <= site.pages.size)
  }
  test("identified topics are mostly correct") {
    val truthByPage = site.topics.map(t => t.pageId -> t.entityId).toMap
    val correct = topics.count(t => truthByPage.get(t.pageId).contains(t.entityId))
    assert(correct.toDouble / topics.size > 0.9, s"$correct/${topics.size}")
  }
  test("topic xpath is the dominant name location") {
    val paths = topics.map(_.topicXpath).distinct
    assert(paths.size <= 2, s"paths=$paths") // h1 location is template-stable
  }
  test("frequent-value strings are never chosen as topics") {
    topics.foreach(t => assert(!vd.kb.frequentValues(repro.util.Normalize(t.entityName))))
  }
  test("uniqueness filter discards entities claimed by many pages") {
    implicit val s = spark
    // KB with a junk entity "Help" whose objects appear on every page footer.
    val junkKb = KnowledgeBase(vd.kb.triples ++ Vector(
      Triple("junk", "Help", "Film", "related", "Contact Us"),
      Triple("junk", "Help", "Film", "related", "About")))
    val kbB = spark.sparkContext.broadcast(junkKb)
    val out = TopicId.identify(spark.createDataset(site.pages), kbB).collect()
    assert(!out.exists(_.entityId == "junk"))
  }
  private def cand(site: String, rank: Int, entityId: String, paths: String*) =
    TopicId.TopicCand(site, "p0", 0, rank, entityId, 1.0 / rank, paths)

  test("rankPaths counts the best candidate of each site's p0") {
    val cands = Vector(
      cand("a", 1, "e1", "/h1[1]"), cand("a", 2, "e2", "/h2[1]"),
      cand("b", 1, "e3", "/h3[1]"), cand("b", 2, "e4", "/h1[1]"))
    assert(TopicId.rankPaths(cands, Set.empty, 10) == Vector("/h1[1]" -> 1, "/h3[1]" -> 1))
  }
  test("rankPaths skips blocked entities, orders by count then path, and keeps topPaths") {
    val cands = Vector(
      cand("a", 1, "e1", "/x[1]", "/h1[1]"), cand("a", 2, "e2", "/h2[1]"),
      cand("b", 1, "e3", "/h1[1]"), cand("c", 1, "e3", "/h2[1]"))
    assert(TopicId.rankPaths(cands, Set.empty, 10) == Vector("/h1[1]" -> 2, "/h2[1]" -> 1, "/x[1]" -> 1))
    assert(TopicId.rankPaths(cands, Set.empty, 2) == Vector("/h1[1]" -> 2, "/h2[1]" -> 1))
    assert(TopicId.rankPaths(cands, Set("e1"), 10) == Vector("/h2[1]" -> 2, "/h1[1]" -> 1))
  }
  test("blockedEntities counts rank-1 candidates across sites") {
    val cands = Vector(
      cand("a", 1, "e1", "/h1[1]"), cand("b", 1, "e1", "/h1[1]"),
      cand("c", 2, "e1", "/h1[1]"), cand("c", 1, "e2", "/h1[1]"))
    assert(TopicId.blockedEntities(cands, 2) == Set("e1"))
    assert(TopicId.blockedEntities(cands, 3).isEmpty)
  }
  test("empty page set yields empty topics") {
    implicit val s = spark
    val kbB = spark.sparkContext.broadcast(vd.kb)
    val out = TopicId.identify(spark.emptyDataset[repro.dom.PageDoc], kbB).collect()
    assert(out.isEmpty)
  }
}
