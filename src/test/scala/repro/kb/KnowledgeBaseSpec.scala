package repro.kb

import org.scalatest.funsuite.AnyFunSuite

class KnowledgeBaseSpec extends AnyFunSuite {

  private val triples = Vector(
    Triple("f1", "Do the Right Thing", "Film", "director", "Spike Lee"),
    Triple("f1", "Do the Right Thing", "Film", "genre", "Comedy"),
    Triple("f1", "Do the Right Thing", "Film", "genre", "Drama"),
    Triple("f2", "Crooklyn", "Film", "director", "Spike Lee"),
    Triple("f2", "Crooklyn", "Film", "genre", "Comedy"),
    Triple("e1", "Pilot", "TVEpisode", "series", "Some Show"),
    Triple("e2", "Pilot", "TVEpisode", "series", "Other Show"),
  )
  private val kb = KnowledgeBase(triples, freqCutoff = 0.2)

  test("nameOf") { assert(kb.nameOf("f1") == "Do the Right Thing") }
  test("typeOf") { assert(kb.typeOf("e1") == "TVEpisode") }
  test("entitiesByName finds by normalised name") {
    assert(kb.entitiesByName("do the right thing") == Set("f1"))
  }
  test("ambiguous names map to all bearers") {
    assert(kb.entitiesByName("pilot") == Set("e1", "e2"))
  }
  test("triplesOf groups by subject") { assert(kb.triplesOf("f1").size == 3) }
  test("objectsOf is normalised") {
    assert(kb.objectsOf("f1") == Set("spike lee", "comedy", "drama"))
  }
  test("predicates universe") {
    assert(kb.predicates == Set("director", "genre", "series"))
  }
  test("frequent values excluded as topics") {
    // "spike lee" and "comedy" appear in 2/7 >= 20% of triples.
    assert(kb.frequentValues.contains("spike lee"))
    assert(kb.frequentValues.contains("comedy"))
    assert(!kb.frequentValues.contains("drama"))
  }
  test("knownString covers names and values") {
    assert(kb.knownString("crooklyn"))
    assert(kb.knownString("drama"))
    assert(!kb.knownString("unknown thing"))
  }
  test("kb is serializable (broadcastable)") {
    val out = new java.io.ObjectOutputStream(new java.io.ByteArrayOutputStream())
    out.writeObject(kb) // must not throw
  }
}
