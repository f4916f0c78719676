package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.dom.DomNode.{el, txt}
import repro.dom.PageDoc
import repro.kb.{KnowledgeBase, Triple}

class EntityMatchSpec extends AnyFunSuite {

  private val kb = KnowledgeBase(Vector(
    Triple("f1", "Crimson Harbor", "Film", "director", "Ann Smith"),
    Triple("f1", "Crimson Harbor", "Film", "genre", "Drama"),
  ))
  private val page = PageDoc.fromTree("s", "p0",
    el("html", el("body",
      txt("h1", "Crimson Harbor"),
      txt("span", "Ann Smith"),
      txt("span", "ann  SMITH!"), // normalises to the same
      txt("span", "Unrelated Text"),
      txt("span", "Drama"))))

  test("mentions match entity names and object values") {
    val ms = EntityMatch.mentions(page, kb)
    assert(ms.map(_.norm).toSet == Set("crimson harbor", "ann smith", "drama"))
  }
  test("fuzzy-normalised variants match") {
    assert(EntityMatch.mentions(page, kb).count(_.norm == "ann smith") == 2)
  }
  test("non-KB strings are not mentions") {
    assert(!EntityMatch.mentions(page, kb).exists(_.norm == "unrelated text"))
  }
  test("pageStrings is the normalised set") {
    assert(EntityMatch.pageStrings(page, kb) == Set("crimson harbor", "ann smith", "drama"))
  }
}
