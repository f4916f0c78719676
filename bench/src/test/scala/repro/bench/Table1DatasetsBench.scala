package repro.bench

import repro.SparkSpec
import repro.exp.SwdeExperiment

/** Table 1: the SWDE-lite dataset overview (paper: 4 verticals, 10 sites
  * each, 4.4k–20k pages; ours: 4 verticals, 4 sites each at bench scale).
  */
class Table1DatasetsBench extends SparkSpec {

  private lazy val verticals = BenchRuns.verticals

  test("Table 1: dataset overview") {
    println(SwdeExperiment.renderTable1(verticals))
    assert(verticals.size == 4)
  }
  test("each vertical has the paper's predicate schema") {
    val byName = verticals.map(v => v.vertical -> v.preds.toSet).toMap
    assert(byName("movie") == Set("title", "director", "genre", "mpaa"))
    assert(byName("nbaplayer") == Set("name", "team", "height", "weight"))
    assert(byName("university") == Set("name", "type", "phone", "website"))
    assert(byName("book") == Set("title", "author", "publisher", "pubdate", "isbn13"))
  }
  test("pages are asserted with ground truth") {
    verticals.foreach(vd => assert(vd.sites.forall(_.truth.nonEmpty)))
  }
}
