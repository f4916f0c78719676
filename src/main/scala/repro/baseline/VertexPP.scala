package repro.baseline

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.core.{Extractor, FeatureGen, RelationAnnot, Trainer}
import repro.dom.{PageDoc, PageTree}
import repro.web.TruthFact

/** Vertex++ baseline (§5.2): supervised wrapper induction from a handful of
  * manually annotated pages ("Vertex++ required two pages per site").
  *
  * The manual annotations are simulated with the renderer's ground truth on
  * `TrainPages` pages.  Because the labels are complete and exact, every
  * other text node of those pages is a guaranteed negative, so the same
  * feature set + multinomial LR learns near-perfect wrappers — the paper's
  * point that annotation-based approaches are an upper bound on quality.
  */
object VertexPP {

  /** Manually annotated pages per site (§5.2). */
  val TrainPages = 2

  def run(
      pages: Dataset[PageDoc],
      truth: Vector[TruthFact],
      namePred: String,
  )(implicit spark: SparkSession): Vector[Extractor.Extraction] = {
    import spark.implicits._
    val trainIds = pages.map(_.pageId).collect().sorted.take(TrainPages).toSet
    val trainPages = pages.filter(p => trainIds.contains(p.pageId))

    val freq  = FeatureGen.frequentStrings(pages)
    val freqB = spark.sparkContext.broadcast(freq)

    val truthByPage = truth.filter(t => trainIds.contains(t.pageId)).groupBy(_.pageId)

    val examples = trainPages.flatMap { p =>
      val tree  = new PageTree(p)
      val fr    = freqB.value
      val facts = truthByPage.getOrElse(p.pageId, Vector.empty)
      val labeled = facts.groupBy(_.xpath).map { case (x, fs) =>
        x -> fs.map(f => if (f.predicate == namePred) RelationAnnot.NamePred else f.predicate).distinct
      }
      p.textNodes.flatMap { n =>
        labeled.get(n.xpath) match {
          case Some(preds) => preds.map(pr => Trainer.Example(pr, FeatureGen.nodeFeatures(tree, n.id, fr)))
          case None        => Vector(Trainer.Example(Trainer.OtherLabel, FeatureGen.nodeFeatures(tree, n.id, fr)))
        }
      }
    }

    val model  = Trainer.train(examples)
    val modelB = spark.sparkContext.broadcast(model)
    Extractor.extract(pages, modelB, freqB).collect().toVector
  }
}
