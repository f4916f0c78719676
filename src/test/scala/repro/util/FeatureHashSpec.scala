package repro.util

import org.scalatest.funsuite.AnyFunSuite

class FeatureHashSpec extends AnyFunSuite {
  test("indices are in range") {
    Seq("a", "tag=div", "", "x" * 100).foreach { s =>
      val i = FeatureHash.indexOf(s)
      assert(i >= 0 && i < FeatureHash.Dim)
    }
  }
  test("deterministic") {
    assert(FeatureHash.indexOf("feature") == FeatureHash.indexOf("feature"))
  }
  test("encode produces sorted distinct indices") {
    val idx = FeatureHash.encode(Seq("a", "b", "c", "a"))
    assert(idx.toSeq == idx.toSeq.sorted)
    assert(idx.distinct.length == idx.length)
    assert(idx.toSet == Set("a", "b", "c").map(FeatureHash.indexOf))
  }
  test("encode of empty") {
    assert(FeatureHash.encode(Nil).isEmpty)
  }
  test("collision rate is low for realistic feature sets") {
    val feats = (0 until 2000).map(i => s"a|$i|0|class|sec-$i")
    val distinct = feats.map(FeatureHash.indexOf).distinct.length
    assert(distinct > 1950, s"distinct=$distinct")
  }
}
