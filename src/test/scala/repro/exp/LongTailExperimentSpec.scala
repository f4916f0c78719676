package repro.exp

import org.scalatest.funsuite.AnyFunSuite

import repro.core.{Ceres, Extractor, RelationAnnot}
import repro.util.Normalize
import repro.web.LongTailSites

/** Table 8's total and renderer on degenerate hand-built rows, and the
  * sweep's name gate on hand-built extractions.
  */
class LongTailExperimentSpec extends AnyFunSuite {

  private def row(site: String, annotations: Int, extractions: Int, precision: Double) =
    LongTailExperiment.Row(site, "Focus", 20, 4, annotations, extractions,
      1.0, if (annotations == 0) 0.0 else extractions.toDouble / annotations, precision)

  test("Table 8 with no extraction on any site renders NA, not NaN") {
    val annotated = Vector(row("a.org", 8, 0, Double.NaN), row("b.org", 0, 0, Double.NaN))
    val t = LongTailExperiment.table8Total(annotated)
    assert(t.extractions == 0 && t.precision.isNaN && t.extractionToAnnotation == 0.0)
    val out = LongTailExperiment.renderTable8(annotated)
    assert(!out.contains("NaN"), out)
    assert(out.linesIterator.toVector.last ==
      "TOTAL pages=40 annPages=8 ann=8 extr=0 precision=NA ex/ann=0.00")
    assert(LongTailExperiment.renderTable8(annotated.tail).linesIterator.toVector.last ==
      "TOTAL pages=20 annPages=4 ann=0 extr=0 precision=NA ex/ann=NA")
  }

  test("Table 8 with one NaN-precision site among others renders NA for it only") {
    val rows = Vector(row("nan.org", 0, 0, Double.NaN), row("half.org", 10, 20, 0.5),
      row("full.org", 10, 30, 1.0))
    val t = LongTailExperiment.table8Total(rows)
    assert(t.extractions == 50 && t.annotations == 20)
    assert(math.abs(t.precision - 0.8) < 1e-12 && t.extractionToAnnotation == 2.5)
    val lines = LongTailExperiment.renderTable8(rows).linesIterator.toVector
    assert(!lines.exists(_.contains("NaN")), lines.mkString("\n"))
    assert(lines.slice(3, 6).map(_.split('|')(1).trim) == Vector("full.org", "half.org", "nan.org"))
    assert(lines(5).trim.endsWith("| NA        |"))
    assert(lines.last == "TOTAL pages=60 annPages=12 ann=20 extr=50 precision=0.80 ex/ann=2.50")
  }

  test("the sweep drops a page's relations once its name extraction falls below the threshold") {
    def ex(page: String, pred: String, value: String, conf: Double) =
      Extractor.Extraction("x.org", page, 0, s"/$pred", pred, value, s"name of $page", conf)
    val sr = LongTailExperiment.SiteResult(LongTailSites.Profile("x.org", "Focus", 2, 0.5), 2, 2, 2,
      Ceres.Result(Vector.empty, Vector.empty, Vector.empty, Vector(
        ex("p0", RelationAnnot.NamePred, "Alpha", 0.6), ex("p0", "genre", "Drama", 0.9),
        ex("p1", RelationAnnot.NamePred, "Beta", 0.9), ex("p1", "genre", "Comedy", 0.8))),
      Set.empty)
    assert(LongTailExperiment.relExtractions(sr, 0.5).map(_._1) == Vector("p0", "p1"))
    assert(LongTailExperiment.relExtractions(sr, 0.75) == Vector(("p1", "genre", Normalize("Comedy"))))
    assert(LongTailExperiment.relExtractions(sr, 0.85).isEmpty)
  }
}
