package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.cluster.TemplateClustering
import repro.dom.PageDoc
import repro.kb.KnowledgeBase

/** End-to-end CERES pipeline (Figure 3): template clustering → per-cluster
  * topic identification → relation annotation → classifier training →
  * extraction over all pages of the cluster.
  *
  * Annotation and training use only `trainIds` pages (the paper's 50/50
  * split; pass an empty set to train on everything, as in the CommonCrawl
  * run); extraction runs over every page, and callers slice the output into
  * train/eval halves for scoring.
  *
  * The clustered pages are collected once and each cluster's stages run
  * over a `Dataset` built from its pages, so every Spark job is a single
  * stage: no shuffle, no cache.
  */
object Ceres {

  sealed trait Mode
  case object Full      extends Mode // Algorithm 1 + Algorithm 2
  case object TopicOnly extends Mode // Algorithm 1, annotate all mentions

  /** What callers set.  The other stage parameters are constants next to
    * the stage that reads them.
    */
  case class Config(
      mode: Mode = Full,
      threshold: Double = 0.5,
      /** Clusters with fewer annotated pages than this are skipped. */
      minAnnotatedPages: Int = 2,
  ) {
    // The stage constants under their old field names, read by
    // perfbench's TracedCeres; they go when ROADMAP item B deletes it.
    def templateThreshold: Double = TemplateClustering.Threshold
    def maxTopicPages: Int        = TopicId.MaxTopicPages
    def minAnnotations: Int       = RelationAnnot.MinAnnotations
    def freqMinFrac: Double       = FeatureGen.MinFrac
    def negRatio: Int             = Trainer.NegRatio
    def seed: Long                = Trainer.Seed
  }

  case class Result(
      topics: Vector[TopicId.PageTopic],       // pre-informativeness (Table 7 input)
      keptTopics: Vector[TopicId.PageTopic],   // post-informativeness
      annotations: Vector[RelationAnnot.Annotation],
      extractions: Vector[Extractor.Extraction],
  )

  def run(
      pages: Dataset[PageDoc],
      trainIds: Set[String],
      kb: KnowledgeBase,
      cfg: Config = Config(),
  )(implicit spark: SparkSession): Result = {
    import spark.implicits._
    val kbB = spark.sparkContext.broadcast(kb)

    // Pages of each cluster, in input order.
    val byCluster = TemplateClustering.assign(pages).collect().toVector.groupBy(_.cluster)

    val allTopics   = Vector.newBuilder[TopicId.PageTopic]
    val allKept     = Vector.newBuilder[TopicId.PageTopic]
    val allAnnots   = Vector.newBuilder[RelationAnnot.Annotation]
    val allExtracts = Vector.newBuilder[Extractor.Extraction]

    byCluster.toVector.sortBy(_._1).foreach { case (_, clusterPages) =>
      val sub      = spark.createDataset(clusterPages)
      val trainSub =
        if (trainIds.isEmpty) sub else spark.createDataset(clusterPages.filter(p => trainIds(p.pageId)))

      val topics = TopicId.identify(trainSub, kbB).collect().toVector
      allTopics ++= topics

      val (annots, kept) = cfg.mode match {
        case Full      => RelationAnnot.annotateFull(trainSub, topics, kbB)
        case TopicOnly => RelationAnnot.annotateTopicOnly(trainSub, topics, kbB)
      }
      allKept ++= kept
      allAnnots ++= annots

      if (kept.size >= cfg.minAnnotatedPages) {
        val freqB    = spark.sparkContext.broadcast(FeatureGen.frequentStrings(trainSub))
        val examples = Trainer.buildExamples(trainSub, annots, freqB)
        val model    = Trainer.train(examples)
        val modelB   = spark.sparkContext.broadcast(model)
        allExtracts ++= Extractor.extract(sub, modelB, freqB, cfg.threshold).collect()
      }
    }

    Result(allTopics.result(), allKept.result(), allAnnots.result(), allExtracts.result())
  }
}
