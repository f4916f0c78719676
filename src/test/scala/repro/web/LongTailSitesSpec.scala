package repro.web

import org.scalatest.funsuite.AnyFunSuite

import repro.util.Normalize

class LongTailSitesSpec extends AnyFunSuite {

  private lazy val lt = LongTailSites.build(scale = 0.15, seed = 66)

  test("all profiled sites are rendered") {
    assert(lt.sites.size == LongTailSites.profiles(0.15).size)
  }
  test("boxofficemojo has only non-detail pages") {
    val bom = lt.sites.find(_.profile.site == "boxofficemojo.com").get
    assert(bom.rendered.topics.isEmpty && bom.rendered.truth.isEmpty && bom.rendered.pages.nonEmpty)
  }
  test("sodasandpopcorn mixes detail and chart pages") {
    val s = lt.sites.find(_.profile.site == "sodasandpopcorn.com").get
    assert(s.rendered.pages.exists(_.pageId.startsWith("c")))
    assert(s.rendered.pages.exists(_.pageId.startsWith("p")))
  }
  test("overlap fraction roughly respected") {
    val tm = lt.sites.find(_.profile.site == "themoviedb.org").get
    val kbNames = lt.kb.entitiesByName.keySet
    val frac = tm.rendered.topics.count(t => kbNames(Normalize(t.entityName))).toDouble /
      tm.rendered.topics.size
    assert(frac > 0.4, s"frac=$frac")
  }
  test("kmdb has tiny overlap") {
    val s = lt.sites.find(_.profile.site == "kmdb.or.kr").get
    val kbIds = lt.kb.triplesOf.keySet
    val frac = s.rendered.topics.count(t => kbIds(t.entityId)).toDouble / s.rendered.topics.size
    assert(frac < 0.2, s"frac=$frac")
  }
  test("spicyonion renders person pages with a collapsed filmography") {
    val s = lt.sites.find(_.profile.site == "spicyonion.com").get
    assert(s.rendered.truth.exists(_.predicate == "actedIn"))
    // Collapsed: a film directed AND acted gets both predicates at one xpath.
    val byPageValue = s.rendered.truth.filterNot(_.predicate == "name")
      .groupBy(t => (t.pageId, t.value, t.xpath))
    assert(byPageValue.exists(_._2.map(_.predicate).distinct.size >= 2) ||
      s.rendered.truth.nonEmpty)
  }
  test("christianfilmdatabase lists all genres every page") {
    val s = lt.sites.find(_.profile.site == "christianfilmdatabase.com").get
    val detail = s.rendered.pages.filter(_.pageId.startsWith("p"))
    detail.take(10).foreach { p =>
      val texts = p.textNodes.map(_.text).toSet
      assert(Verticals.MovieGenres.forall(texts))
    }
  }
  test("the-numbers buries release dates in a chart") {
    val s = lt.sites.find(_.profile.site == "the-numbers.com").get
    val p = s.rendered.pages.find(_.pageId.startsWith("p")).get
    val dateTexts = p.textNodes.count(_.text.matches("\\d{4}-\\d{2}-\\d{2}"))
    assert(dateTexts >= 4, s"dates=$dateTexts")
  }
  test("dianying film titles collide with KB episode titles") {
    val s = lt.sites.find(_.profile.site == "dianying.com").get
    val epNames = lt.kb.triples.filter(_.subjectType == "TVEpisode").map(t => Normalize(t.subjectName)).toSet
    val freshTopics = s.rendered.topics.filterNot(t => lt.kb.triplesOf.contains(t.entityId))
    val collisions = freshTopics.count(t => epNames(Normalize(t.entityName)))
    assert(collisions > 0, "expected some fresh films to share episode titles")
  }
  test("KB contains more episode subjects than film subjects") {
    val types = lt.kb.typeOf.values.groupBy(identity).view.mapValues(_.size)
    assert(types("TVEpisode") > types("Film"))
  }
  test("deterministic build") {
    val again = LongTailSites.build(scale = 0.15, seed = 66)
    assert(again.kb.triples.size == lt.kb.triples.size)
    assert(again.sites.map(_.rendered.pages.size) == lt.sites.map(_.rendered.pages.size))
  }
}
