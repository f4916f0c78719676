package repro.perfbench

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.cluster.TemplateClustering
import repro.core.{Ceres, Extractor, FeatureGen, RelationAnnot, TopicId, Trainer}
import repro.dom.PageDoc
import repro.kb.KnowledgeBase

/** A stage-by-stage mirror of `Ceres.run` that wraps each public stage call
  * in a span and records the counts at its boundary.
  *
  * The calls, their arguments and their order are those of `Ceres.run`;
  * each lazy `Dataset` a stage returns is cached and forced inside that
  * stage's span, so its work is billed to the stage that defines it.  The
  * benchmark compares the mirror's output digest with `Ceres.run`'s on
  * every traced operation, so a change to the pipeline that the mirror does
  * not follow fails the output check instead of tracing another program.
  */
object TracedCeres {

  def run(
      pages: Dataset[PageDoc],
      trainIds: Set[String],
      kb: KnowledgeBase,
      cfg: Ceres.Config,
      t: Tracer,
  )(implicit spark: SparkSession): Ceres.Result = {
    import spark.implicits._
    val kbB = spark.sparkContext.broadcast(kb)

    val (clustered, clusters) = t.span("cluster.assign") {
      val c = TemplateClustering.assign(pages, cfg.templateThreshold).cache()
      c.count()
      (c, c.map(_.cluster).distinct().collect().sorted)
    }
    t.count("cluster.clusters", clusters.length.toDouble)
    // Bookkeeping for the counters, outside the stage spans.
    val textNodes: Map[Int, Vector[(String, Int)]] = clustered
      .map(p => (p.cluster, p.pageId, p.textNodes.size)).collect().toVector
      .groupMap(_._1)(x => (x._2, x._3))

    val allTopics   = Vector.newBuilder[TopicId.PageTopic]
    val allKept     = Vector.newBuilder[TopicId.PageTopic]
    val allAnnots   = Vector.newBuilder[RelationAnnot.Annotation]
    val allExtracts = Vector.newBuilder[Extractor.Extraction]

    clusters.foreach { c =>
      val sub      = clustered.filter(_.cluster == c).cache()
      val trainSub = (if (trainIds.isEmpty) sub else sub.filter(p => trainIds.contains(p.pageId))).cache()
      val inCluster = textNodes(c)
      val nTrain    = inCluster.count { case (pid, _) => trainIds.isEmpty || trainIds(pid) }

      val topics = t.span("core.topicid") {
        TopicId.identify(trainSub, kbB, cfg.maxTopicPages).collect().toVector
      }
      t.count("core.topicid.topics", topics.size.toDouble)
      t.count("core.topicid.pages_in", nTrain.toDouble)
      allTopics ++= topics

      val (annots, kept) = t.span("core.annot") {
        cfg.mode match {
          case Ceres.Full      => RelationAnnot.annotateFull(trainSub, topics, kbB, cfg.minAnnotations)
          case Ceres.TopicOnly => RelationAnnot.annotateTopicOnly(trainSub, topics, kbB, cfg.minAnnotations)
        }
      }
      t.count("core.annot.annotations", annots.size.toDouble)
      t.count("core.annot.kept", kept.size.toDouble)
      allKept ++= kept
      allAnnots ++= annots

      if (kept.size >= cfg.minAnnotatedPages) {
        val freq = t.span("core.featuregen") {
          FeatureGen.frequentStrings(trainSub, cfg.freqMinFrac)
        }
        t.count("core.featuregen.strings", freq.size.toDouble)
        val freqB = spark.sparkContext.broadcast(freq)
        val examples = t.span("core.trainer.examples") {
          val ex = Trainer.buildExamples(trainSub, annots, freqB, cfg.negRatio, cfg.seed).cache()
          t.count("core.trainer.rows", ex.count().toDouble)
          ex
        }
        val model = t.span("core.trainer.train")(Trainer.train(examples))
        examples.unpersist()
        t.count("core.trainer.fits", 1)
        val modelB = spark.sparkContext.broadcast(model)
        val extracted = t.span("core.extractor") {
          Extractor.extract(sub, modelB, freqB, cfg.threshold).collect()
        }
        t.count("core.extractor.extractions", extracted.length.toDouble)
        t.count("core.extractor.nodes_scored", inCluster.map(_._2).sum.toDouble)
        t.count("core.extractor.pages", inCluster.size.toDouble)
        t.count("core.extractor.subject_pages", extracted.map(_.pageId).distinct.length.toDouble)
        allExtracts ++= extracted
      }
      trainSub.unpersist()
      sub.unpersist()
    }
    clustered.unpersist()

    Ceres.Result(allTopics.result(), allKept.result(), allAnnots.result(), allExtracts.result())
  }
}
