package repro.dom

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

import repro.dom.DomNode.{el, txt}
import repro.util.Normalize

class PageDocSpec extends AnyFunSuite {

  private val tree = el("html",
    el("head", txt("title", "T")),
    el("body",
      el("div", Map("class" -> "a"), txt("span", "x"), txt("span", "y")),
      el("div", Map("class" -> "b"), txt("span", "z"))))
  private val doc = PageDoc.fromTree("s", "p0", tree)

  test("node count") { assert(doc.nodes.size == 9) }
  test("root xpath") { assert(doc.nodes.head.xpath == "/html[1]") }
  test("root has no parent") { assert(doc.nodes.head.parent == -1) }
  test("document order ids") { assert(doc.nodes.map(_.id) == (0 until 9).toVector) }
  test("same-tag siblings get increasing indices") {
    val divs = doc.nodes.filter(_.tag == "div").map(_.xpath)
    assert(divs == Vector("/html[1]/body[1]/div[1]", "/html[1]/body[1]/div[2]"))
  }
  test("indices are per-tag, not per-position") {
    val spans = doc.nodes.filter(n => n.tag == "span" && n.xpath.contains("div[1]"))
    assert(spans.map(_.xpath) ==
      Vector("/html[1]/body[1]/div[1]/span[1]", "/html[1]/body[1]/div[1]/span[2]"))
  }
  test("xpaths are unique") {
    assert(doc.nodes.map(_.xpath).distinct.size == doc.nodes.size)
  }
  test("textNodes returns only text leaves") {
    assert(doc.textNodes.map(_.text).toSet == Set("T", "x", "y", "z"))
  }
  test("attrs preserved") {
    assert(doc.nodes.find(_.xpath == "/html[1]/body[1]/div[1]").get.attrs == Map("class" -> "a"))
  }
  test("cluster initialised to -1") { assert(doc.cluster == -1) }
  test("parent pointers are consistent") {
    doc.nodes.filter(_.parent >= 0).foreach { n =>
      val p = doc.nodes(n.parent)
      assert(n.xpath.startsWith(p.xpath + "/"))
    }
  }

  // Random pages: few tags, so same-tag siblings are common; text leaves
  // carry mixed-case, accented and punctuated strings, or nothing.
  private val text: Gen[String] = Gen.frequency(
    2 -> Gen.const(""),
    3 -> Gen.listOf(Gen.oneOf("Ab1 -.,é ØÆ ß\t".toSeq)).map(_.mkString),
  )
  private def node(depth: Int): Gen[DomNode] = for {
    tag  <- Gen.oneOf("div", "span", "li", "ul")
    n    <- if (depth >= 4) Gen.const(0) else Gen.choose(0, 4)
    kids <- Gen.listOfN(n, node(depth + 1))
    t    <- if (kids.isEmpty) text else Gen.const("")
  } yield DomNode(tag, text = t, children = kids.toVector)
  private val pages: Gen[PageDoc] = node(1).map(body => PageDoc.fromTree("s", "p", el("html", body)))

  private def check(prop: Prop): Unit =
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), prop).passed)

  test("property: every node's norm is Normalize(text)") {
    check(Prop.forAll(pages)(p => p.nodes.forall(n => n.norm == Normalize(n.text))))
  }
  test("property: xpaths are unique and resolve back to their node") {
    check(Prop.forAll(pages) { p =>
      val tree = new PageTree(p)
      p.nodes.map(_.xpath).distinct.size == p.nodes.size &&
        p.nodes.forall(n => tree.nodeAt(n.xpath).contains(n))
    })
  }
}
