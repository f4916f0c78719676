package repro.dom

import org.scalatest.funsuite.AnyFunSuite

import repro.dom.DomNode.{el, txt}

class PageTreeSpec extends AnyFunSuite {

  private val doc = PageDoc.fromTree("s", "p0",
    el("html",
      el("body",
        el("div", txt("span", "a"), el("ul", txt("li", "b"), txt("li", "c"))),
        el("div", txt("span", "d")))))
  private val tree = new PageTree(doc)

  private def idOf(text: String): Int = doc.textNodes.find(_.text == text).get.id

  test("node lookup by id") { assert(tree.node(idOf("a")).text == "a") }
  test("nodeAt finds by xpath") {
    assert(tree.nodeAt("/html[1]/body[1]/div[1]/span[1]").map(_.text).contains("a"))
  }
  test("nodeAt misses gracefully") { assert(tree.nodeAt("/html[1]/body[2]").isEmpty) }
  test("contains xpath") { assert(tree.contains("/html[1]/body[1]/div[2]/span[1]")) }
  test("ancestors are nearest-first up to root") {
    val b = idOf("b")
    val ancTags = tree.ancestors(b).map(tree.node(_).tag)
    assert(ancTags == List("ul", "div", "body", "html"))
  }
  test("subtree is inclusive, document order") {
    val div1 = tree.node(idOf("a")).parent
    assert(tree.subtree(div1).map(tree.node(_).text).filter(_.nonEmpty) == Vector("a", "b", "c"))
  }
  test("subtreeTexts filters to text leaves") {
    val body = tree.node(tree.node(idOf("a")).parent).parent
    assert(tree.subtreeTexts(body).map(tree.node(_).text) == Vector("a", "b", "c", "d"))
  }
  test("ancestor containment") {
    val b = idOf("b")
    val ul = tree.node(b).parent
    assert(tree.contains(ul, b))
    assert(tree.contains(0, b)) // root contains all
    assert(!tree.contains(b, ul))
  }
  test("containment is reflexive") { assert(tree.contains(idOf("c"), idOf("c"))) }
}
