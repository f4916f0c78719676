package repro.core

import repro.kb.KnowledgeBase
import repro.util.Normalize
import repro.web.{TopicTruth, TruthFact}

/** Evaluation metrics for the paper's tables.
  *
  * All comparisons are value-normalised.  A triple-level extraction is
  * correct iff the page asserts (pred, value) — same protocol as the
  * paper's CommonCrawl judgment ("correct if it expresses a fact asserted
  * on the page from which it was extracted", §5.1.3); an annotation is
  * correct iff the exact (xpath, pred) node assertion exists.
  */
object Metrics {

  case class PRF(label: String, tp: Long, fp: Long, fn: Long) {
    def p: Double  = if (tp + fp == 0) 0.0 else tp.toDouble / (tp + fp)
    def r: Double  = if (tp + fn == 0) 0.0 else tp.toDouble / (tp + fn)
    def f1: Double = if (p + r == 0) 0.0 else 2 * p * r / (p + r)
  }

  /** `prfs` rolled up under `label`: their tp, fp and fn summed. */
  def total(label: String, prfs: Iterable[PRF]): PRF =
    PRF(label, prfs.map(_.tp).sum, prfs.map(_.fp).sum, prfs.map(_.fn).sum)

  /** Per-predicate PRFs plus their "ALL" roll-up. */
  def withAll(per: Map[String, PRF]): Map[String, PRF] = per + ("ALL" -> total("ALL", per.values))

  /** Rename the reserved name-class to the page's real name predicate. */
  def resolvePred(pred: String, pageId: String, namePredOf: String => String): String =
    if (pred == RelationAnnot.NamePred) namePredOf(pageId) else pred

  private def inScope(pageId: String, evalPages: Set[String]): Boolean =
    evalPages.isEmpty || evalPages.contains(pageId)

  /** Distinct asserted (page, pred, normValue) triples. */
  def truthTriples(truth: Vector[TruthFact], evalPages: Set[String] = Set.empty): Set[(String, String, String)] =
    truth.collect { case t if inScope(t.pageId, evalPages) => (t.pageId, t.predicate, Normalize(t.value)) }.toSet

  /** Mention-level P/R/F1 per predicate over distinct extracted triples
    * (Table 4 / Table 5 protocol), plus an "ALL" roll-up.
    */
  def extractionPRF(
      extractions: Vector[Extractor.Extraction],
      truth: Vector[TruthFact],
      namePredOf: String => String,
      evalPages: Set[String] = Set.empty,
  ): Map[String, PRF] = {
    val truthSet = truthTriples(truth, evalPages)
    val extracted = extractions
      .filter(e => inScope(e.pageId, evalPages))
      .map(e => (e.pageId, resolvePred(e.predicate, e.pageId, namePredOf), Normalize(e.value)))
      .distinct
    val tpByPred = extracted.filter(truthSet).groupBy(_._2).view.mapValues(_.size.toLong).toMap
    val fpByPred = extracted.filterNot(truthSet).groupBy(_._2).view.mapValues(_.size.toLong).toMap
    val extractedSet = extracted.toSet
    val fnByPred = truthSet.toVector.filterNot(extractedSet).groupBy(_._2).view.mapValues(_.size.toLong).toMap
    val preds = (tpByPred.keySet ++ fpByPred.keySet ++ fnByPred.keySet).toVector.sorted
    withAll(preds.map { p =>
      p -> PRF(p, tpByPred.getOrElse(p, 0L), fpByPred.getOrElse(p, 0L), fnByPred.getOrElse(p, 0L))
    }.toMap)
  }

  /** Page-hit P/R/F1 (Hao et al. protocol used for Table 3): one prediction
    * per predicate per page (the top-confidence extraction); a page counts
    * as a hit if that prediction is asserted by the page.
    */
  def pageHitPRF(
      extractions: Vector[Extractor.Extraction],
      truth: Vector[TruthFact],
      namePredOf: String => String,
      evalPages: Set[String] = Set.empty,
  ): Map[String, PRF] = {
    val truthSet = truthTriples(truth, evalPages)
    val topPerPagePred = extractions
      .filter(e => inScope(e.pageId, evalPages))
      .groupBy(e => (e.pageId, resolvePred(e.predicate, e.pageId, namePredOf)))
      .map { case ((pid, pred), es) => (pid, pred, Normalize(es.maxBy(_.confidence).value)) }
      .toVector
    val truthPages = truthSet.groupBy(_._2).view.mapValues(_.map(_._1)).toMap
    val preds = (topPerPagePred.map(_._2) ++ truthSet.map(_._2)).distinct.sorted
    withAll(preds.map { pred =>
      val predictions = topPerPagePred.filter(_._2 == pred)
      val hits        = predictions.count(truthSet)
      val withTruth   = truthPages.getOrElse(pred, Set.empty).size.toLong
      pred -> PRF(pred, hits, predictions.size - hits, withTruth - hits)
    }.toMap)
  }

  /** Annotation accuracy (Table 6): an annotation is correct iff the page
    * truly asserts that predicate at that exact node; recall counts, per
    * page, the KB facts of the page's true topic that the page asserts.
    */
  def annotationPRF(
      annotations: Vector[RelationAnnot.Annotation],
      truth: Vector[TruthFact],
      topicTruth: Vector[TopicTruth],
      kb: KnowledgeBase,
      namePredOf: String => String,
      evalPages: Set[String] = Set.empty,
  ): Map[String, PRF] = {
    val truthNodes = truth
      .collect { case t if inScope(t.pageId, evalPages) => (t.pageId, t.xpath, t.predicate) }
      .toSet
    val anns = annotations.filter(a => inScope(a.pageId, evalPages))
      .map(a => (a.pageId, a.xpath, resolvePred(a.predicate, a.pageId, namePredOf), Normalize(a.value)))
      .distinct
    val correct = anns.filter(a => truthNodes((a._1, a._2, a._3)))

    // Annotatable KB facts: (page, pred, value) asserted by the page whose
    // true topic has the matching KB triple.
    val truthSet = truthTriples(truth, evalPages)
    val annotatable = topicTruth
      .filter(t => inScope(t.pageId, evalPages))
      .flatMap { t =>
        kb.triplesOf.getOrElse(t.entityId, Vector.empty).map(tr => (t.pageId, tr.predicate, Normalize(tr.obj)))
      }
      .filter(truthSet)
      .distinct
    val correctTriples = correct.map(a => (a._1, a._3, a._4)).toSet

    val preds = (anns.map(_._3) ++ annotatable.map(_._2)).distinct.sorted
    withAll(preds.map { pred =>
      val annsP    = anns.filter(_._3 == pred)
      val tp       = annsP.count(a => truthNodes((a._1, a._2, a._3))).toLong
      val fp       = annsP.size - tp
      val annotble = annotatable.filter(_._2 == pred)
      val fn       = annotble.count(x => !correctTriples(x)).toLong
      pred -> PRF(pred, tp, fp, fn)
    }.toMap)
  }

  /** Topic-identification accuracy (Table 7), evaluated on pages whose true
    * topic exists in the KB as a subject (the paper's "strong keys" subset).
    */
  def topicPRF(
      topics: Vector[TopicId.PageTopic],
      topicTruth: Vector[TopicTruth],
      kb: KnowledgeBase,
      evalPages: Set[String] = Set.empty,
  ): PRF = {
    val truthByPage = topicTruth.filter(t => inScope(t.pageId, evalPages)).map(t => t.pageId -> t).toMap
    val identified  = topics.filter(t => inScope(t.pageId, evalPages))
    val correct = identified.count(t => truthByPage.get(t.pageId).exists(_.entityId == t.entityId)).toLong
    val evaluable = truthByPage.values.count(t => kb.triplesOf.contains(t.entityId)).toLong
    PRF("topic", correct, identified.size - correct, evaluable - correct)
  }

  def fmt(m: PRF): String = f"P=${m.p}%.2f R=${m.r}%.2f F1=${m.f1}%.2f"
}
