package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core.{Ceres, Metrics, RelationAnnot}
import repro.util.Normalize
import repro.web.LongTailSites

/** The CommonCrawl-style long-tail experiment (§5.5): Table 8 (per-site
  * breakdown), Table 9 (top predicates), and the Figure-6 precision-vs-
  * extraction-count threshold sweep behind the abstract's headline claim.
  *
  * As in the paper there is no train/eval split: annotation, training and
  * extraction all run over the full site.  Extraction is run at threshold
  * 0.5; the sweep filters by confidence afterwards, so one trained model
  * serves both the 0.5 tables and the sweep.
  */
object LongTailExperiment {

  case class SiteResult(
      profile: LongTailSites.Profile,
      nPages: Int,
      annotatedPages: Int,
      annotations: Int,
      result: Ceres.Result,
      correctTriples: Set[(String, String, String)],
  )

  case class Row(
      site: String,
      focus: String,
      nPages: Int,
      annotatedPages: Int,
      annotations: Int,
      extractions: Int,
      extractedToAnnotatedPages: Double,
      extractionToAnnotation: Double,
      precision: Double, // NaN when no extraction
  )

  /** Table 8's TOTAL line; precision (ex/ann) is NaN with no extraction (annotation). */
  case class Total(nPages: Int, annotatedPages: Int, annotations: Int, extractions: Int,
                   precision: Double, extractionToAnnotation: Double)

  def run(scale: Double = 1.0)(implicit spark: SparkSession): Vector[SiteResult] = {
    val lt = LongTailSites.build(scale)
    Par.map(lt.sites)(runSite(lt, _))
  }

  /** CERES-Full over one site of `lt`, trained on all of its pages, at threshold 0.5. */
  def runSite(lt: LongTailSites.LongTail, sd: LongTailSites.SiteData)(implicit spark: SparkSession): SiteResult = {
    val pages = spark.createDataset(sd.rendered.pages)(org.apache.spark.sql.Encoders.product)
    val res   = Ceres.run(pages, trainIds = Set.empty, lt.kb, Ceres.Config(mode = Ceres.Full))
    SiteResult(sd.profile, sd.rendered.pages.size, res.keptTopics.size,
      res.annotations.count(_.predicate != RelationAnnot.NamePred), res, Metrics.truthTriples(sd.rendered.truth))
  }

  /** Distinct (pageId, predicate, normalised value) relations extracted at `threshold`:
    * as in `Extractor.extract`, none from a page whose name node is below it.
    */
  def relExtractions(sr: SiteResult, threshold: Double): Vector[(String, String, String)] = {
    val kept  = sr.result.extractions.filter(_.confidence >= threshold)
    val named = kept.filter(_.predicate == RelationAnnot.NamePred).map(_.pageId).toSet
    kept.filter(e => e.predicate != RelationAnnot.NamePred && named(e.pageId))
      .map(e => (e.pageId, e.predicate, Normalize(e.value))).distinct
  }

  /** Table 8 row for one site at threshold 0.5. */
  def table8Row(sr: SiteResult): Row = {
    val ex       = relExtractions(sr, 0.5)
    val correct  = ex.count(sr.correctTriples)
    val exPages  = ex.map(_._1).distinct.size
    Row(sr.profile.site, sr.profile.focus, sr.nPages, sr.annotatedPages, sr.annotations, ex.size,
      if (sr.annotatedPages == 0) 0.0 else exPages.toDouble / sr.annotatedPages,
      if (sr.annotations == 0) 0.0 else ex.size.toDouble / sr.annotations,
      if (ex.isEmpty) Double.NaN else correct.toDouble / ex.size)
  }

  /** Table 9: per-predicate annotations, extractions, precision (threshold 0.5). */
  def table9(srs: Vector[SiteResult], top: Int = 10): Vector[(String, Int, Int, Double)] = {
    val annByPred = srs.flatMap(_.result.annotations).groupBy(_.predicate).view.mapValues(_.size).toMap
    srs.flatMap(sr => relExtractions(sr, 0.5).map(t => (t._2, sr.correctTriples(t))))
      .groupBy(_._1)
      .map { case (pred, xs) =>
        (pred, annByPred.getOrElse(pred, 0), xs.size, xs.count(_._2).toDouble / xs.size)
      }
      .toVector
      .sortBy(-_._3)
      .take(top)
  }

  /** Figure 6: (threshold, #extractions, precision) at thresholds 0.50, 0.55, ..., 0.95. */
  def sweep(srs: Vector[SiteResult]): Vector[(Double, Int, Double)] =
    (50 to 95 by 5).toVector.map(_ / 100.0).map { th =>
      val ex = srs.flatMap(sr => relExtractions(sr, th).map(t => (t, sr.correctTriples(t))))
      (th, ex.size, if (ex.isEmpty) Double.NaN else ex.count(_._2).toDouble / ex.size)
    }

  /** §5.5: ratio of annotated topic entities to distinct extracted subjects (threshold 0.5). */
  def entityRatio(srs: Vector[SiteResult]): (Int, Int) = {
    val annotated = srs.flatMap(_.result.keptTopics.map(t => Normalize(t.entityName))).distinct.size
    val extracted = srs.flatMap(_.result.extractions.map(e => Normalize(e.subject))).distinct.size
    (annotated, extracted)
  }

  def table8Total(rows: Vector[Row]): Total = {
    val ex      = rows.map(_.extractions).sum
    val ann     = rows.map(_.annotations).sum
    val correct = rows.filterNot(_.precision.isNaN).map(r => r.precision * r.extractions).sum
    Total(rows.map(_.nPages).sum, rows.map(_.annotatedPages).sum, ann, ex,
      if (ex == 0) Double.NaN else correct / ex, if (ann == 0) Double.NaN else ex.toDouble / ann)
  }

  /** Table 8, most precise site first, then its TOTAL line. */
  def renderTable8(rows: Vector[Row]): String = {
    val t = table8Total(rows)
    TableFmt.render("Table 8: long-tail sites @ threshold 0.5",
      Vector("Website", "Focus", "#Pages", "#AnnPages", "#Ann", "#Extr", "ExP/AnP", "Ex/Ann", "Precision"),
      rows.sortBy(r => if (r.precision.isNaN) 2.0 else -r.precision).map(r =>
        Vector(r.site, r.focus, r.nPages.toString, r.annotatedPages.toString,
          r.annotations.toString, r.extractions.toString, TableFmt.f2(r.extractedToAnnotatedPages),
          TableFmt.f2(r.extractionToAnnotation), TableFmt.f2(r.precision)))) +
      s"\nTOTAL pages=${t.nPages} annPages=${t.annotatedPages} ann=${t.annotations} extr=${t.extractions} " +
      s"precision=${TableFmt.f2(t.precision)} ex/ann=${TableFmt.f2(t.extractionToAnnotation)}"
  }

  def renderTable9(srs: Vector[SiteResult]): String =
    TableFmt.render("Table 9: top predicates @ threshold 0.5",
      Vector("Predicate", "#Annotations", "#Extractions", "Precision"),
      table9(srs).map { case (p, a, e, pr) => Vector(p, a.toString, e.toString, TableFmt.f2(pr)) })

  def renderFigure6(srs: Vector[SiteResult]): String =
    TableFmt.render("Figure 6: precision vs extraction count",
      Vector("Threshold", "#Extractions", "Precision"),
      sweep(srs).map { case (t, n, p) => Vector(TableFmt.f2(t), n.toString, TableFmt.f2(p)) })

  def renderEntityRatio(srs: Vector[SiteResult]): String = {
    val (annEnt, exEnt) = entityRatio(srs)
    s"Entity ratio annotated:extracted = 1:${TableFmt.f2(exEnt.toDouble / annEnt)} ($annEnt vs $exEnt)"
  }
}
