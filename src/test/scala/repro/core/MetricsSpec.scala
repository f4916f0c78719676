package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

import repro.kb.{KnowledgeBase, Triple}
import repro.web.{TopicTruth, TruthFact}

class MetricsSpec extends AnyFunSuite {

  private def ext(pid: String, pred: String, value: String, conf: Double = 0.9) =
    Extractor.Extraction("s", pid, 0, s"/x[1]", pred, value, "Subj", conf)
  private def tf(pid: String, xpath: String, pred: String, value: String) =
    TruthFact("s", pid, xpath, pred, value)

  test("PRF arithmetic") {
    val m = Metrics.PRF("x", tp = 8, fp = 2, fn = 8)
    assert(m.p == 0.8 && m.r == 0.5)
    assert(math.abs(m.f1 - 2 * 0.8 * 0.5 / 1.3) < 1e-9)
  }
  test("PRF degenerate cases") {
    assert(Metrics.PRF("x", 0, 0, 0).p == 0.0)
    assert(Metrics.PRF("x", 0, 0, 0).f1 == 0.0)
  }
  test("extractionPRF counts tp/fp/fn per predicate") {
    val truth = Vector(tf("p1", "/a[1]", "genre", "Drama"), tf("p1", "/a[2]", "genre", "Comedy"))
    val prf = Metrics.extractionPRF(
      Vector(ext("p1", "genre", "Drama"), ext("p1", "genre", "Horror")),
      truth, _ => "title")
    assert(prf("genre").tp == 1 && prf("genre").fp == 1 && prf("genre").fn == 1)
  }
  test("extractionPRF normalises values") {
    val truth = Vector(tf("p1", "/a[1]", "genre", "Drama"))
    val prf = Metrics.extractionPRF(Vector(ext("p1", "genre", "  DRAMA! ")), truth, _ => "t")
    assert(prf("genre").tp == 1 && prf("genre").fp == 0)
  }
  test("extractionPRF dedupes repeated extractions of one triple") {
    val truth = Vector(tf("p1", "/a[1]", "genre", "Drama"))
    val prf = Metrics.extractionPRF(
      Vector(ext("p1", "genre", "Drama"), ext("p1", "genre", "Drama", 0.7)), truth, _ => "t")
    assert(prf("genre").tp == 1 && prf("genre").fp == 0)
  }
  test("extractionPRF maps the name class to the page's name predicate") {
    val truth = Vector(tf("p1", "/h[1]", "title", "Film X"))
    val prf = Metrics.extractionPRF(
      Vector(ext("p1", RelationAnnot.NamePred, "Film X")), truth, _ => "title")
    assert(prf("title").tp == 1)
  }
  test("extractionPRF restricts to eval pages") {
    val truth = Vector(tf("p1", "/a[1]", "genre", "Drama"), tf("p2", "/a[1]", "genre", "Drama"))
    val prf = Metrics.extractionPRF(
      Vector(ext("p1", "genre", "Drama"), ext("p2", "genre", "Drama")), truth, _ => "t", Set("p2"))
    assert(prf("ALL").tp == 1 && prf("ALL").fn == 0)
  }
  test("pageHitPRF uses only the top-confidence prediction") {
    val truth = Vector(tf("p1", "/a[1]", "genre", "Drama"))
    val prf = Metrics.pageHitPRF(
      Vector(ext("p1", "genre", "Horror", 0.95), ext("p1", "genre", "Drama", 0.6)),
      truth, _ => "t")
    assert(prf("genre").tp == 0 && prf("genre").fp == 1 && prf("genre").fn == 1)
  }
  test("pageHitPRF credits a page once regardless of value count") {
    val truth = Vector(tf("p1", "/a[1]", "genre", "Drama"), tf("p1", "/a[2]", "genre", "Comedy"))
    val prf = Metrics.pageHitPRF(Vector(ext("p1", "genre", "Comedy", 0.8)), truth, _ => "t")
    assert(prf("genre").tp == 1 && prf("genre").fn == 0)
  }
  test("annotationPRF correctness requires the exact node") {
    val truth = Vector(tf("p1", "/a[1]", "genre", "Drama"), tf("p1", "/b[1]", "other", "Drama"))
    val anns = Vector(
      RelationAnnot.Annotation("s", "p1", 0, "/a[1]", "genre", "Drama", "e1", "E"),
      RelationAnnot.Annotation("s", "p1", 0, "/b[1]", "genre", "Drama", "e1", "E"))
    val kb = KnowledgeBase(Vector(Triple("e1", "E", "Film", "genre", "Drama")))
    val prf = Metrics.annotationPRF(anns, truth, Vector(TopicTruth("s", "p1", "e1", "E")), kb, _ => "t")
    assert(prf("genre").tp == 1 && prf("genre").fp == 1)
  }
  test("annotationPRF recall counts annotatable KB facts") {
    val truth = Vector(tf("p1", "/a[1]", "genre", "Drama"), tf("p1", "/a[2]", "genre", "Comedy"))
    val kb = KnowledgeBase(Vector(
      Triple("e1", "E", "Film", "genre", "Drama"),
      Triple("e1", "E", "Film", "genre", "Comedy"),
      Triple("e1", "E", "Film", "genre", "Horror"))) // not asserted on page: not annotatable
    val anns = Vector(RelationAnnot.Annotation("s", "p1", 0, "/a[1]", "genre", "Drama", "e1", "E"))
    val prf = Metrics.annotationPRF(anns, truth, Vector(TopicTruth("s", "p1", "e1", "E")), kb, _ => "t")
    assert(prf("genre").tp == 1 && prf("genre").fn == 1) // Comedy missed, Horror excluded
  }
  test("topicPRF scores identification against truth") {
    val kb = KnowledgeBase(Vector(
      Triple("e1", "E1", "Film", "genre", "Drama"),
      Triple("e2", "E2", "Film", "genre", "Drama")))
    val topics = Vector(
      TopicId.PageTopic("s", "p1", 0, "e1", "E1", "/h[1]", 0.5),
      TopicId.PageTopic("s", "p2", 0, "e1", "E1", "/h[1]", 0.5)) // wrong
    val tt = Vector(TopicTruth("s", "p1", "e1", "E1"), TopicTruth("s", "p2", "e2", "E2"),
      TopicTruth("s", "p3", "eX", "EX")) // eX not in KB: excluded from recall
    val m = Metrics.topicPRF(topics, tt, kb)
    assert(m.tp == 1 && m.fp == 1 && m.fn == 1)
  }

  // A few pages, predicates and values, so generated extractions and truth
  // overlap often; the name class resolves to "title".
  private val pageG  = Gen.oneOf("p0", "p1", "p2")
  private val valueG = Gen.oneOf("Drama", "drama!", "Comedy", "Noir")
  private val extG = for {
    pid  <- pageG
    pred <- Gen.oneOf("genre", "director", RelationAnnot.NamePred)
    v    <- valueG
    c    <- Gen.choose(0.0, 1.0)
  } yield ext(pid, pred, v, c)
  private val truthG = for {
    pid  <- pageG
    pred <- Gen.oneOf("genre", "director", "title", "year")
    v    <- valueG
  } yield tf(pid, "/a[1]", pred, v)

  test("property: extractionPRF's ALL is the roll-up of its predicates and tp + fn counts the truth") {
    val prop = Prop.forAll(Gen.listOf(extG), Gen.listOf(truthG), Gen.someOf("p0", "p1", "p2")) {
      (exs, truth, eval) =>
        val evalPages = eval.toSet
        val prf = Metrics.extractionPRF(exs.toVector, truth.toVector, _ => "title", evalPages)
        val all = prf("ALL")
        all == Metrics.total("ALL", (prf - "ALL").values) &&
          all.tp + all.fn == Metrics.truthTriples(truth.toVector, evalPages).size
    }
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(500), prop).passed)
  }
}
