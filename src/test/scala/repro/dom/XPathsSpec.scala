package repro.dom

import org.scalatest.funsuite.AnyFunSuite

class XPathsSpec extends AnyFunSuite {
  test("template strips all indices") {
    assert(XPaths.template("/html[1]/body[1]/div[12]/span[3]") == "/html/body/div/span")
  }
  test("template of index-free path is identity") {
    assert(XPaths.template("/html/body") == "/html/body")
  }
  test("figure-2 style paths share a template") {
    val winfrey  = "/html[1]/body[1]/div[2]/div[4]/div[3]/div[62]"
    val mckellen = "/html[1]/body[1]/div[2]/div[4]/div[2]/div[33]"
    assert(XPaths.template(winfrey) == XPaths.template(mckellen))
  }
}
