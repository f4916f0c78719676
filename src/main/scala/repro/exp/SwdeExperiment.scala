package repro.exp

import org.apache.spark.sql.SparkSession

import repro.baseline.{CeresBaseline, VertexPP}
import repro.core.{Ceres, Extractor, Metrics}
import repro.web.Verticals

/** The SWDE experiment (§5.3): Tables 1, 3 and 4.
  *
  * For every vertical and site: split pages 50/50 into train (annotation +
  * learning) and eval halves, run the four systems of §5.2, and score the
  * eval half.  Table 3 uses the page-hit protocol of Hao et al. (one
  * prediction per predicate per page); Table 4 reports full mention-level
  * P/R/F1 per predicate.  Distantly supervised systems are scored only on
  * predicates present in the seed KB (footnote a of Table 3); Vertex++ is
  * scored on all predicates.
  */
object SwdeExperiment {

  val Systems = Vector("Vertex++", "CERES-Baseline", "CERES-Topic", "CERES-Full")

  case class SiteRun(
      vertical: String,
      site: String,
      system: String,
      pageHit: Map[String, Metrics.PRF],
      mention: Map[String, Metrics.PRF],
      annotatedPages: Int,
      nTrainPages: Int,
  )

  def run(pagesPerSite: Int = 120)(implicit spark: SparkSession): Vector[SiteRun] = {
    val work = for {
      vd <- Verticals.all(pagesPerSite)
      site <- vd.sites
      system <- Systems
    } yield (vd, site, system)
    Par.map(work) { case (vd, site, system) =>
      val kbPreds  = vd.kb.predicates + vd.namePred
      val pages    = spark.createDataset(site.pages)(org.apache.spark.sql.Encoders.product)
      val sorted   = site.pages.map(_.pageId).sorted
      val trainIds = sorted.take(sorted.size / 2).toSet
      val evalIds  = sorted.toSet -- trainIds
      val namePredOf = (_: String) => vd.namePred

      def score(ex: Vector[Extractor.Extraction], annotated: Int): SiteRun = {
        val restrict: Map[String, Metrics.PRF] => Map[String, Metrics.PRF] =
          if (system == "Vertex++") identity
          else m => Metrics.withAll((m - "ALL").filter { case (p, _) => kbPreds(p) })
        // Restrict truth to KB predicates for DS systems before scoring, so
        // unextractable predicates (mpaa) do not show up as fn.
        val truth =
          if (system == "Vertex++") site.truth
          else site.truth.filter(t => kbPreds(t.predicate))
        SiteRun(vd.vertical, site.site, system,
          restrict(Metrics.pageHitPRF(ex, truth, namePredOf, evalIds)),
          restrict(Metrics.extractionPRF(ex, truth, namePredOf, evalIds)),
          annotated, trainIds.size)
      }

      system match {
        case "Vertex++" =>
          score(VertexPP.run(pages, site.truth, vd.namePred), VertexPP.TrainPages)
        case "CERES-Baseline" =>
          score(CeresBaseline.run(pages, trainIds, vd.kb), -1)
        case "CERES-Topic" =>
          val r = Ceres.run(pages, trainIds, vd.kb, Ceres.Config(mode = Ceres.TopicOnly))
          score(r.extractions, r.keptTopics.size)
        case "CERES-Full" =>
          val r = Ceres.run(pages, trainIds, vd.kb, Ceres.Config(mode = Ceres.Full))
          score(r.extractions, r.keptTopics.size)
        case other => sys.error(s"unknown system $other")
      }
    }
  }

  /** Table 3: vertical-level page-hit F1 = mean over sites of the mean
    * per-predicate F1 (predicates the system could target).
    */
  def table3(runs: Vector[SiteRun]): Vector[(String, String, Double)] =
    runs
      .groupBy(r => (r.vertical, r.system))
      .map { case ((v, sys), rs) =>
        val perSite = rs.map { r =>
          val per = r.pageHit - "ALL"
          if (per.isEmpty) 0.0 else per.values.map(_.f1).sum / per.size
        }
        (v, sys, perSite.sum / perSite.size)
      }
      .toVector
      .sortBy(t => (t._1, t._2))

  /** Table 4: per-predicate mention-level PRF summed over a vertical's sites. */
  def table4(runs: Vector[SiteRun], system: String): Vector[(String, String, Metrics.PRF)] =
    runs
      .filter(_.system == system)
      .flatMap(r => (r.mention - "ALL").values.map(m => (r.vertical, m)))
      .groupBy { case (v, m) => (v, m.label) }
      .map { case ((v, pred), ms) =>
        (v, pred, Metrics.total(pred, ms.map(_._2)))
      }
      .toVector
      .sortBy(t => (t._1, t._2))

  /** Table 1: sites, pages and attributes of each vertical. */
  def renderTable1(verticals: Vector[Verticals.VerticalData]): String =
    TableFmt.render("Table 1: SWDE-lite dataset", Vector("Vertical", "#Sites", "#Pages", "Attributes"),
      verticals.map(vd => Vector(vd.vertical, vd.sites.size.toString,
        vd.sites.map(_.pages.size).sum.toString, vd.preds.mkString(", "))))

  def renderTable3(runs: Vector[SiteRun]): String = {
    val t3 = table3(runs).map { case (v, s, f) => (v, s) -> f }.toMap
    val verticals = runs.map(_.vertical).distinct
    TableFmt.render("Table 3: page-hit F1", "System" +: verticals,
      Systems.map(sys => sys +: verticals.map(v => t3.get((v, sys)).map(TableFmt.f2).getOrElse("NA"))))
  }

  /** Table 4: Vertex++ and CERES-Full side by side, NA where one has no score. */
  def renderTable4(runs: Vector[SiteRun]): String = {
    def byKey(system: String) = table4(runs, system).map(t => (t._1, t._2) -> t._3).toMap
    val (vpp, full) = (byKey("Vertex++"), byKey("CERES-Full"))
    def cells(m: Option[Metrics.PRF]) = m.fold(Vector("NA", "NA", "NA"))(TableFmt.prfRow(Vector.empty, _))
    TableFmt.render("Table 4: mention-level P/R/F1 (Vertex++ vs CERES-Full)",
      Vector("Vertical", "Predicate", "V++ P", "V++ R", "V++ F1", "Full P", "Full R", "Full F1"),
      (vpp.keySet ++ full.keySet).toVector.sorted.map(k =>
        Vector(k._1, k._2) ++ cells(vpp.get(k)) ++ cells(full.get(k))))
  }

  /** Fraction of train pages receiving at least one annotation (§5.3 text). */
  def renderAnnotatedFraction(runs: Vector[SiteRun]): String =
    "Annotated-page fraction (CERES-Full): " +
      runs.filter(_.system == "CERES-Full").groupBy(_.vertical).toVector.sortBy(_._1)
        .map { case (v, rs) =>
          f"$v=${rs.map(_.annotatedPages).sum.toDouble / rs.map(_.nTrainPages).sum * 100}%.0f%%"
        }.mkString(", ")
}
